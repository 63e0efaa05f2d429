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
// Both indexes are flat maps holding exactly the live documents, so Search
// reads one structure and scores with plain corpus statistics. Clone copies
// the maps and shares what they point at — the same prefix sharing
// internal/table's Appender uses for its arena and chunk list: a posting
// list is handed over as l[:len:len], so the first append on the clone
// reallocates while an append on the original writes past the clone's
// length. The one invariant is that a posting list is never written below
// its published length: Add only appends, and reindexing or removing a
// document rebuilds the affected lists into fresh slices. Embedding vectors
// are immutable and shared by pointer.
package index

import (
	"cmp"
	"maps"
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
	Name    []string
	Content []string // tokens of the knowledge components, task-specific
	Tag     []string
}

// Hit is one retrieval result.
type Hit struct {
	ID    string
	Score float64
}

// posting is one document's term frequency in a term's posting list.
type posting struct {
	id string
	tf int
}

// Lexical is an inverted index with TF-IDF ranking (see the package
// comment for how clones share posting lists).
type Lexical struct {
	mu       sync.RWMutex
	postings map[string][]posting // term -> one posting per live document
	docLen   map[string]int
	entries  map[string]Entry
}

// NewLexical returns an empty lexical index.
func NewLexical() *Lexical {
	return &Lexical{postings: map[string][]posting{}, docLen: map[string]int{}, entries: map[string]Entry{}}
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
	ix.strip(e.ID)
	terms, docLen := lexTerms(e)
	eachTerm(terms, func(term string, tf int) {
		ix.postings[term] = append(ix.postings[term], posting{e.ID, tf})
	})
	ix.docLen[e.ID] = docLen
	ix.entries[e.ID] = e
}

// strip forgets id. Each posting list it appears in is rebuilt into a
// fresh slice: the old backing array may be shared with clones.
func (ix *Lexical) strip(id string) {
	old, ok := ix.entries[id]
	if !ok {
		return
	}
	terms, _ := lexTerms(old)
	eachTerm(terms, func(term string, _ int) {
		l := ix.postings[term]
		if len(l) == 1 {
			delete(ix.postings, term)
			return
		}
		fresh := make([]posting, 0, len(l)-1)
		for _, p := range l {
			if p.id != id {
				fresh = append(fresh, p)
			}
		}
		ix.postings[term] = fresh
	})
	delete(ix.docLen, id)
	delete(ix.entries, id)
}

// Clone returns an independent snapshot: mutations to either side after
// the clone are invisible to the other. It copies the maps and shares the
// posting lists, capped at their current length. It backs the knowledge
// graph's copy-on-write swap, so readers can keep searching the original
// while a writer builds and mutates the clone.
func (ix *Lexical) Clone() *Lexical {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	cp := &Lexical{
		postings: make(map[string][]posting, len(ix.postings)),
		docLen:   maps.Clone(ix.docLen),
		entries:  maps.Clone(ix.entries),
	}
	for term, l := range ix.postings {
		cp.postings[term] = l[:len(l):len(l)]
	}
	return cp
}

// Remove deletes an entry from the index.
func (ix *Lexical) Remove(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.strip(id)
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
	scores := map[string]float64{}
	accumulate := func(term string, weight float64) {
		l := ix.postings[term]
		if len(l) == 0 {
			return
		}
		idf := math.Log(1 + float64(n)/float64(len(l)))
		for _, p := range l {
			dl := ix.docLen[p.id]
			if dl == 0 {
				dl = 1
			}
			scores[p.id] += weight * idf * float64(p.tf) / math.Sqrt(float64(dl))
		}
	}
	for _, t := range query {
		accumulate(t, 1)
		if len(t) >= 3 {
			accumulate("p3:"+t[:3], 0.4)
		}
	}
	hits := make([]Hit, 0, len(scores))
	for id, s := range scores {
		hits = append(hits, Hit{ID: id, Score: s})
	}
	return topK(hits, k)
}

// Vector is a brute-force cosine-similarity index over embeddings. The
// vectors are never modified after Add, so clones share them by pointer.
type Vector struct {
	mu   sync.RWMutex
	vecs map[string]*embed.Vector
}

// NewVector returns an empty vector index.
func NewVector() *Vector {
	return &Vector{vecs: map[string]*embed.Vector{}}
}

// Add indexes an entry under the embedding of name+content+tag.
func (ix *Vector) Add(e Entry) {
	v := embed.Tokens(slices.Concat(e.Name, e.Content, e.Tag))
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.vecs[e.ID] = &v
}

// Clone returns an independent snapshot (see Lexical.Clone).
func (ix *Vector) Clone() *Vector {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return &Vector{vecs: maps.Clone(ix.vecs)}
}

// Remove deletes an entry.
func (ix *Vector) Remove(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	delete(ix.vecs, id)
}

// Len returns the number of entries.
func (ix *Vector) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.vecs)
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
	for id, v := range ix.vecs {
		if s := embed.Cosine(*query, *v); s > 0 {
			hits = append(hits, Hit{ID: id, Score: s})
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
