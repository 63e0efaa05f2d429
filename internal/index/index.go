// Package index provides the two retrieval indexes the knowledge graph is
// served from: an inverted index with TF-IDF scoring (the Elasticsearch
// full-text role in the paper) and a vector index over deterministic
// embeddings (the StarRocks embedding-search role). Both index the same
// triplet structure {name, content, tag} from §IV-B.
//
// The package never sees text: its one client, the knowledge graph,
// tokenizes a node's fields once and hands the tokens to all its indexes,
// and tokenizes and embeds a question once and hands those to every Search.
//
// A document is addressed by the ordinal its Entry carries — the knowledge
// graph's dense numbering of its nodes, fixed for the life of an ID — so
// everything held per document is a slice over that ordinal, a posting names
// its document by it, and Search scores into an array. Clone copies those
// slices and the term map and shares the posting lists — the same prefix
// sharing internal/table's Appender uses for its arena and chunk list: a
// list is handed over as l[:len:len], so the first append on the clone
// reallocates while an append on the original writes past the clone's
// length. The one invariant is that a posting list is never written below
// its published length: Add only appends, and reindexing a document
// rebuilds the affected lists into fresh slices. Embeddings are immutable
// and shared.
package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"datalab/internal/embed"
	"datalab/internal/textutil"
)

// Entry is one indexed document: the triplet the paper's task-aware
// indexing mechanism stores per knowledge node, each field as its
// textutil.Tokenize tokens. The index keeps the slices and never writes
// to them.
type Entry struct {
	ID      string // unique node identifier
	Ord     int32  // its ordinal: the next unused one, or the one ID already has
	Name    []string
	Content []string // tokens of the knowledge components, task-specific
	Tag     []string
}

// Hit is one retrieval result.
type Hit struct {
	ID    string
	Ord   int32
	Score float64
}

// posting is one document's term frequency in a term's posting list.
type posting struct {
	doc int32
	tf  int32
}

// replaces reports whether e reindexes the document at its ordinal rather
// than taking the next unused one of n; held names the ID at an ordinal. The
// graph assigns ordinals, so any other ordinal is a bug there and panics.
func replaces(e Entry, n int, held func(ord int32) string) bool {
	if int(e.Ord) == n {
		return false
	}
	if e.Ord < 0 || int(e.Ord) > n || held(e.Ord) != e.ID {
		panic(fmt.Sprintf("index: %q added at ordinal %d of %d documents", e.ID, e.Ord, n))
	}
	return true
}

// Lexical is an inverted index with TF-IDF ranking (see the package
// comment for how clones share posting lists).
type Lexical struct {
	mu       sync.RWMutex
	postings map[string][]posting // term -> one posting per document holding it
	docLen   []int                // by ordinal
	entries  []Entry              // by ordinal
}

// NewLexical returns an empty lexical index.
func NewLexical() *Lexical {
	return &Lexical{postings: map[string][]posting{}}
}

// lexTerms expands an entry into its sorted index terms (duplicates kept,
// so a run's length is the term frequency) and its weighted token count.
// The name field is weighted 3x: a query term hitting a node's name is a
// far stronger signal than one hitting its prose content. Subword prefixes
// approximate the character-n-gram matching of production search engines:
// "imp_cnt" is findable from "impression count".
func lexTerms(e Entry) (terms []string, docLen int) {
	weighted := slices.Concat(e.Name, e.Name, e.Name, e.Content, e.Tag)
	for _, t := range weighted {
		if textutil.IsStopword(t) {
			continue
		}
		terms = append(terms, t)
		if len(t) >= 3 {
			terms = append(terms, "p3:"+t[:3])
		}
	}
	slices.Sort(terms)
	return terms, len(weighted)
}

// eachTerm calls fn once per distinct term of a sorted term list with the
// term's frequency.
func eachTerm(terms []string, fn func(term string, tf int)) {
	for i := 0; i < len(terms); {
		j := i + 1
		for j < len(terms) && terms[j] == terms[i] {
			j++
		}
		fn(terms[i], j-i)
		i = j
	}
}

// Add indexes (or reindexes) an entry, appending one posting per term.
func (ix *Lexical) Add(e Entry) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	terms, docLen := lexTerms(e)
	if replaces(e, len(ix.entries), func(ord int32) string { return ix.entries[ord].ID }) {
		ix.strip(e.Ord)
		ix.entries[e.Ord], ix.docLen[e.Ord] = e, docLen
	} else {
		ix.entries, ix.docLen = append(ix.entries, e), append(ix.docLen, docLen)
	}
	eachTerm(terms, func(term string, tf int) {
		ix.postings[term] = append(ix.postings[term], posting{e.Ord, int32(tf)})
	})
}

// strip drops the postings of the document at ord. Each posting list it
// appears in is rebuilt into a fresh slice: the old backing array may be
// shared with clones.
func (ix *Lexical) strip(ord int32) {
	terms, _ := lexTerms(ix.entries[ord])
	eachTerm(terms, func(term string, _ int) {
		l := ix.postings[term]
		if len(l) == 1 {
			delete(ix.postings, term)
			return
		}
		fresh := make([]posting, 0, len(l)-1)
		for _, p := range l {
			if p.doc != ord {
				fresh = append(fresh, p)
			}
		}
		ix.postings[term] = fresh
	})
}

// Clone returns an independent snapshot: mutations to either side after
// the clone are invisible to the other. It copies the term map and the
// per-document slices and shares the posting lists, capped at their current
// length. It backs the knowledge graph's copy-on-write swap, so readers can
// keep searching the original while a writer builds and mutates the clone.
func (ix *Lexical) Clone() *Lexical {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	cp := &Lexical{
		postings: make(map[string][]posting, len(ix.postings)),
		docLen:   slices.Clone(ix.docLen),
		entries:  slices.Clone(ix.entries),
	}
	for term, l := range ix.postings {
		cp.postings[term] = l[:len(l):len(l)]
	}
	return cp
}

// Len returns the number of entries.
func (ix *Lexical) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.entries)
}

// Search returns the top-k entries by TF-IDF score against the query's
// content tokens (textutil.ContentTokens; a repeated token counts again).
// Deterministic: ties break by ID.
func (ix *Lexical) Search(query []string, k int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.entries)
	if n == 0 || k <= 0 {
		return nil
	}
	scores := make([]float64, n) // by ordinal; every term adds more than 0
	accumulate := func(l []posting, weight float64) {
		if len(l) == 0 {
			return
		}
		idf := math.Log(1 + float64(n)/float64(len(l)))
		for _, p := range l {
			dl := ix.docLen[p.doc]
			if dl == 0 {
				dl = 1
			}
			scores[p.doc] += weight * idf * float64(p.tf) / math.Sqrt(float64(dl))
		}
	}
	for _, t := range query {
		accumulate(ix.postings[t], 1)
		if len(t) >= 3 {
			// The "p3:" term of lexTerms, looked up without building it.
			p3 := [...]byte{'p', '3', ':', t[0], t[1], t[2]}
			accumulate(ix.postings[string(p3[:])], 0.4)
		}
	}
	matched := 0
	for _, s := range scores {
		if s != 0 {
			matched++
		}
	}
	hits := make([]Hit, 0, matched)
	for ord, s := range scores {
		if s != 0 {
			hits = append(hits, Hit{ID: ix.entries[ord].ID, Ord: int32(ord), Score: s})
		}
	}
	return topK(hits, k)
}

// Vector is a brute-force cosine-similarity index over embeddings, which
// are never modified after Add, so clones share them.
type Vector struct {
	mu   sync.RWMutex
	ids  []string       // by ordinal
	vecs []embed.Sparse // by ordinal
}

// NewVector returns an empty vector index.
func NewVector() *Vector {
	return &Vector{}
}

// Add indexes an entry under the embedding of name+content+tag.
func (ix *Vector) Add(e Entry) {
	v := embed.Tokens(slices.Concat(e.Name, e.Content, e.Tag))
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if replaces(e, len(ix.ids), func(ord int32) string { return ix.ids[ord] }) {
		ix.vecs[e.Ord] = v.Sparse()
	} else {
		ix.ids, ix.vecs = append(ix.ids, e.ID), append(ix.vecs, v.Sparse())
	}
}

// Clone returns an independent snapshot (see Lexical.Clone).
func (ix *Vector) Clone() *Vector {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return &Vector{ids: slices.Clone(ix.ids), vecs: slices.Clone(ix.vecs)}
}

// Len returns the number of entries.
func (ix *Vector) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.ids)
}

// Search returns the top-k entries with a positive cosine similarity to
// the query embedding. Deterministic: ties break by ID.
func (ix *Vector) Search(query *embed.Vector, k int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.vecs) == 0 || k <= 0 {
		return nil
	}
	hits := make([]Hit, 0, len(ix.vecs))
	for ord, v := range ix.vecs {
		if s := v.Dot(query); s > 0 {
			hits = append(hits, Hit{ID: ix.ids[ord], Ord: int32(ord), Score: s})
		}
	}
	return topK(hits, k)
}

// topK ranks hits (one per ID) by score, ties by ID, and keeps the first k.
func topK(hits []Hit, k int) []Hit {
	slices.SortFunc(hits, func(a, b Hit) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}
