package index

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// handle is one index pair under test plus the documents it should hold.
// It plays the graph's part: the first add of an ID takes the next ordinal,
// a later one keeps it.
type handle struct {
	lex  *Lexical
	vec  *Vector
	live map[string]Entry
}

func newHandle() *handle {
	return &handle{lex: NewLexical(), vec: NewVector(), live: map[string]Entry{}}
}

func (h *handle) add(e Entry) {
	e.Ord = int32(len(h.live))
	if old, ok := h.live[e.ID]; ok {
		e.Ord = old.Ord
	}
	h.lex.Add(e)
	h.vec.Add(e)
	h.live[e.ID] = e
}

func (h *handle) clone() *handle {
	return &handle{lex: h.lex.Clone(), vec: h.vec.Clone(), live: maps.Clone(h.live)}
}

// vocab is small and prefix-heavy so documents share both whole-term and
// "p3:" posting lists.
var vocab = []string{
	"revenue", "revised", "income", "incident", "product", "profit",
	"region", "regular", "customer", "custom", "order", "orbit",
}

var cloneQueries = []string{"revenue income", "product region customer", "order profit orbit", "regular revised incident custom"}

// checkAgainstScratch asserts that h answers exactly like indexes built
// from scratch over h's live documents: Len, and for every query the hit
// IDs, their order and their scores bit for bit. The scratch build numbers
// the documents in ID order, so ordinals differ between the two on purpose.
func checkAgainstScratch(t *testing.T, label string, h *handle) {
	t.Helper()
	ids := make([]string, 0, len(h.live))
	for id := range h.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	lex, vec := NewLexical(), NewVector()
	for ord, id := range ids {
		e := h.live[id]
		e.Ord = int32(ord)
		lex.Add(e)
		vec.Add(e)
	}
	if h.lex.Len() != len(ids) || h.vec.Len() != len(ids) {
		t.Fatalf("%s: Len lex=%d vec=%d, want %d", label, h.lex.Len(), h.vec.Len(), len(ids))
	}
	for _, q := range cloneQueries {
		sameHits(t, label+" lexical "+q, searchLex(h.lex, q, 10), searchLex(lex, q, 10))
		sameHits(t, label+" vector "+q, searchVec(h.vec, q, 10), searchVec(vec, q, 10))
	}
}

func sameHits(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		// Not the ordinal: it is whatever the build assigned. == on the
		// score is bit-exact for non-NaN scores.
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("%s: hit %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestIndexCloneIndependence pins the slice-sharing contract: after a
// clone, appends to posting lists shared between original and clones —
// on every side — and a reindex on one side stay invisible to the others.
func TestIndexCloneIndependence(t *testing.T) {
	orig := newHandle()
	for i, content := range []string{
		"revenue income product", "revenue region customer", "income profit order",
		"product customer order", "revenue revised regular",
	} {
		orig.add(doc(fmt.Sprintf("d%d", i), vocab[i], content, "column"))
	}
	c1, c2 := orig.clone(), orig.clone()

	// Every new document shares terms with existing ones, so each side
	// appends to posting lists all three handles hold.
	orig.add(doc("o1", "revenue", "income order revenue", "column"))
	c1.add(doc("c1", "income", "revenue product region", "column"))
	c2.add(doc("c2", "order", "revenue income customer", "table"))
	orig.add(doc("o2", "customer", "product profit", "column"))
	c1.add(doc("c1b", "profit", "customer order", "column"))
	// Reindex an ID every handle holds, on one side only.
	c1.add(doc("d0", "orbit", "incident custom", "jargon"))
	// A clone of a clone, then both diverge again.
	c3 := c1.clone()
	c3.add(doc("c3", "revenue", "orbit incident", "column"))
	c1.add(doc("d1", "regular", "revised order", "table"))

	for label, h := range map[string]*handle{"orig": orig, "c1": c1, "c2": c2, "c3": c3} {
		checkAgainstScratch(t, label, h)
	}
	if hits := searchLex(orig.lex, "orbit", 10); len(hits) != 0 {
		t.Errorf("clone's reindexed text visible in the original: %v", hits)
	}
}

// TestIndexCloneConcurrent searches the original on several goroutines
// while clones are taken from it and mutated — what the platform's
// copy-on-write knowledge swap does to a published graph. Run under -race.
func TestIndexCloneConcurrent(t *testing.T) {
	orig := newHandle()
	for i := 0; i < 30; i++ {
		orig.add(doc(fmt.Sprintf("d%02d", i), vocab[i%len(vocab)], vocab[(i+3)%len(vocab)]+" "+vocab[(i+7)%len(vocab)], ""))
	}
	want := make([][]Hit, len(cloneQueries))
	for i, q := range cloneQueries {
		want[i] = searchLex(orig.lex, q, 10)
	}
	var wg sync.WaitGroup
	writers := make([]*handle, 3) // each writer's last clone, checked after the wait
	for w := range writers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := orig
			for i := 0; i < 20; i++ {
				cur = cur.clone()
				cur.add(doc(fmt.Sprintf("w%d_%d", w, i), vocab[i%len(vocab)], "revenue income product", ""))
				cur.add(doc("d00", "orbit", fmt.Sprintf("custom %d", i), ""))
			}
			writers[w] = cur
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := i % len(cloneQueries)
				if got := searchLex(orig.lex, cloneQueries[q], 10); !slices.Equal(got, want[q]) {
					t.Errorf("original's results changed under clone mutation: %v, want %v", got, want[q])
					return
				}
				searchVec(orig.vec, cloneQueries[q], 10)
			}
		}()
	}
	wg.Wait()
	checkAgainstScratch(t, "orig", orig)
	for w, h := range writers {
		checkAgainstScratch(t, fmt.Sprintf("writer %d", w), h)
	}
}

// TestIndexCloneReplaceUnderReader re-Adds every ID on a clone — each a
// write to a per-document slot the original also has — while readers
// search the original, whose hits, scores and Len must not move. Run under
// -race.
func TestIndexCloneReplaceUnderReader(t *testing.T) {
	orig := newHandle()
	for i := 0; i < 24; i++ {
		orig.add(doc(fmt.Sprintf("d%02d", i), vocab[i%len(vocab)], vocab[(i+2)%len(vocab)]+" "+vocab[(i+5)%len(vocab)], "column"))
	}
	type answer struct{ lex, vec []Hit }
	ask := func(h *handle, q string) answer { return answer{searchLex(h.lex, q, 10), searchVec(h.vec, q, 10)} }
	same := func(a, b answer) bool { return slices.Equal(a.lex, b.lex) && slices.Equal(a.vec, b.vec) }
	want := make([]answer, len(cloneQueries))
	for i, q := range cloneQueries {
		want[i] = ask(orig, q)
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := i % len(cloneQueries)
				if got := ask(orig, cloneQueries[q]); !same(got, want[q]) || orig.lex.Len() != 24 || orig.vec.Len() != 24 {
					t.Errorf("original changed while a clone replaced its documents: %v, want %v", got, want[q])
					return
				}
			}
		}()
	}
	cl := orig.clone()
	for i := 0; i < 24; i++ {
		cl.add(doc(fmt.Sprintf("d%02d", i), "orbit", "incident custom", "jargon"))
	}
	wg.Wait()

	for i, q := range cloneQueries {
		if got := ask(orig, q); !same(got, want[i]) {
			t.Errorf("original answers %q differently after the clone's replacements", q)
		}
	}
	checkAgainstScratch(t, "orig", orig)
	checkAgainstScratch(t, "clone", cl)
	if hits := searchLex(cl.lex, "revenue product", 10); len(hits) != 0 {
		t.Errorf("clone still finds replaced text: %v", hits)
	}
	if cl.lex.Len() != 24 || cl.vec.Len() != 24 {
		t.Errorf("replacement changed the clone's Len: lex=%d vec=%d", cl.lex.Len(), cl.vec.Len())
	}
}

// TestIndexCloneRandomSequences drives seeded random Add / re-Add / Clone
// sequences over a handful of handles that share history, and after every
// step holds every handle — not just the one touched — to the from-scratch
// equality.
func TestIndexCloneRandomSequences(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		handles := []*handle{newHandle()}
		for step := 0; step < 200; step++ {
			h := handles[rng.Intn(len(handles))]
			if rng.Intn(10) < 8 { // Add, or re-Add when the ID is already live
				content := ""
				for w := 0; w < 1+rng.Intn(5); w++ {
					content += vocab[rng.Intn(len(vocab))] + " "
				}
				h.add(doc(fmt.Sprintf("d%d", rng.Intn(40)), vocab[rng.Intn(len(vocab))], content, "column"))
			} else {
				if cp := h.clone(); len(handles) < 6 {
					handles = append(handles, cp)
				} else {
					handles[rng.Intn(len(handles))] = cp
				}
			}
			for i, h := range handles {
				checkAgainstScratch(t, fmt.Sprintf("seed %d step %d handle %d", seed, step, i), h)
			}
		}
	}
}
