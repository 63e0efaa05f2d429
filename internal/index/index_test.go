package index

import (
	"fmt"
	"testing"

	"datalab/internal/embed"
	"datalab/internal/textutil"
)

// doc builds an entry from text the way the knowledge graph does: each
// field tokenized once.
func doc(id, name, content, tag string) Entry {
	return Entry{ID: id, Name: textutil.Tokenize(name), Content: textutil.Tokenize(content), Tag: textutil.Tokenize(tag)}
}

// searchLex and searchVec analyse a question the way the retriever does.
func searchLex(ix *Lexical, query string, k int) []Hit {
	return ix.Search(textutil.ContentTokens(query), k)
}

func searchVec(ix *Vector, query string, k int) []Hit {
	q := embed.Text(query)
	return ix.Search(&q, k)
}

func seedEntries() []Entry {
	entries := []Entry{
		doc("col:shouldincome_after", "shouldincome_after", "revenue income after tax for a product line, measured monthly", "column"),
		doc("col:prod_class4_name", "prod_class4_name", "the product name at classification level four, e.g. TencentBI", "column"),
		doc("col:ftime", "ftime", "partition date of the record in YYYYMMDD format", "column"),
		doc("tab:sales_db.orders", "orders", "customer orders with amounts and regions", "table"),
		doc("jarg:arpu", "ARPU", "average revenue per user, computed as revenue divided by active users", "jargon"),
	}
	for i := range entries {
		entries[i].Ord = int32(i)
	}
	return entries
}

func TestLexicalSearchRanksNameMatchesFirst(t *testing.T) {
	ix := NewLexical()
	for _, e := range seedEntries() {
		ix.Add(e)
	}
	hits := searchLex(ix, "income of the product", 5)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].ID != "col:shouldincome_after" {
		t.Errorf("top hit = %s", hits[0].ID)
	}
}

func TestLexicalSearchEmpty(t *testing.T) {
	ix := NewLexical()
	if hits := searchLex(ix, "anything", 5); hits != nil {
		t.Errorf("empty index returned hits: %v", hits)
	}
	ix.Add(seedEntries()[0])
	if hits := searchLex(ix, "anything", 0); hits != nil {
		t.Errorf("k=0 returned hits: %v", hits)
	}
}

func TestLexicalReindexReplaces(t *testing.T) {
	ix := NewLexical()
	ix.Add(doc("x", "alpha", "old content about turtles", ""))
	ix.Add(doc("x", "alpha", "new content about revenue", ""))
	if ix.Len() != 1 {
		t.Fatalf("len = %d", ix.Len())
	}
	if hits := searchLex(ix, "turtles", 5); len(hits) != 0 {
		t.Error("stale postings survive reindex")
	}
	if hits := searchLex(ix, "revenue", 5); len(hits) != 1 {
		t.Error("new content not searchable")
	}
}

func TestVectorSearchSemantic(t *testing.T) {
	ix := NewVector()
	for _, e := range seedEntries() {
		ix.Add(e)
	}
	hits := searchVec(ix, "average revenue per user metric", 3)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].ID != "jarg:arpu" {
		t.Errorf("top hit = %s, want jarg:arpu", hits[0].ID)
	}
}

// TestAddRejectsOrdinalOutOfSequence: a document takes the next unused
// ordinal or the one its ID already holds; the graph never asks for
// anything else, so the indexes refuse it loudly.
func TestAddRejectsOrdinalOutOfSequence(t *testing.T) {
	at := func(e Entry, ord int32) Entry { e.Ord = ord; return e }
	seed := seedEntries()
	for _, tc := range []struct {
		label string
		e     Entry
		ok    bool
	}{
		{"the next ordinal", at(doc("new", "fresh", "text", ""), 5), true},
		{"an existing ID at its ordinal", at(doc("col:ftime", "ftime", "other text", ""), 2), true},
		{"a gap", at(doc("new", "fresh", "text", ""), 6), false},
		{"negative", at(doc("new", "fresh", "text", ""), -1), false},
		{"a new ID on a held ordinal", at(doc("new", "fresh", "text", ""), 2), false},
		{"an existing ID on another's ordinal", at(doc("col:ftime", "ftime", "text", ""), 3), false},
	} {
		for name, add := range map[string]func(Entry){"lexical": NewLexical().Add, "vector": NewVector().Add} {
			for _, e := range seed {
				add(e)
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				add(tc.e)
				return
			}()
			if panicked == tc.ok {
				t.Errorf("%s, %s: panicked = %v, want %v", name, tc.label, panicked, !tc.ok)
			}
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	lex := NewLexical()
	vec := NewVector()
	for i := 0; i < 50; i++ {
		e := doc(fmt.Sprintf("e%02d", i), "metric", "identical content for tie-breaking", "")
		e.Ord = int32(i)
		lex.Add(e)
		vec.Add(e)
	}
	l1 := searchLex(lex, "identical content metric", 10)
	l2 := searchLex(lex, "identical content metric", 10)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("lexical search not deterministic")
		}
	}
	v1 := searchVec(vec, "identical content metric", 10)
	v2 := searchVec(vec, "identical content metric", 10)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("vector search not deterministic")
		}
	}
	// Ties must break by ascending ID.
	for i := 1; i < len(l1); i++ {
		if l1[i-1].Score == l1[i].Score && l1[i-1].ID > l1[i].ID {
			t.Fatal("tie-break order violated")
		}
	}
}

func TestTopKBound(t *testing.T) {
	ix := NewLexical()
	for i := 0; i < 20; i++ {
		e := doc(fmt.Sprintf("d%d", i), "revenue", "revenue doc", "")
		e.Ord = int32(i)
		ix.Add(e)
	}
	if got := len(searchLex(ix, "revenue", 7)); got != 7 {
		t.Errorf("topK = %d, want 7", got)
	}
}
