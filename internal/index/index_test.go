package index

import (
	"fmt"
	"testing"
)

func seedEntries() []Entry {
	return []Entry{
		{ID: "col:shouldincome_after", Name: "shouldincome_after", Content: "revenue income after tax for a product line, measured monthly", Tag: "column"},
		{ID: "col:prod_class4_name", Name: "prod_class4_name", Content: "the product name at classification level four, e.g. TencentBI", Tag: "column"},
		{ID: "col:ftime", Name: "ftime", Content: "partition date of the record in YYYYMMDD format", Tag: "column"},
		{ID: "tab:sales_db.orders", Name: "orders", Content: "customer orders with amounts and regions", Tag: "table"},
		{ID: "jarg:arpu", Name: "ARPU", Content: "average revenue per user, computed as revenue divided by active users", Tag: "jargon"},
	}
}

func TestLexicalSearchRanksNameMatchesFirst(t *testing.T) {
	ix := NewLexical()
	for _, e := range seedEntries() {
		ix.Add(e)
	}
	hits := ix.Search("income of the product", 5)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].ID != "col:shouldincome_after" {
		t.Errorf("top hit = %s", hits[0].ID)
	}
}

func TestLexicalSearchEmpty(t *testing.T) {
	ix := NewLexical()
	if hits := ix.Search("anything", 5); hits != nil {
		t.Errorf("empty index returned hits: %v", hits)
	}
	ix.Add(seedEntries()[0])
	if hits := ix.Search("anything", 0); hits != nil {
		t.Errorf("k=0 returned hits: %v", hits)
	}
}

func TestLexicalReindexReplaces(t *testing.T) {
	ix := NewLexical()
	ix.Add(Entry{ID: "x", Name: "alpha", Content: "old content about turtles"})
	ix.Add(Entry{ID: "x", Name: "alpha", Content: "new content about revenue"})
	if ix.Len() != 1 {
		t.Fatalf("len = %d", ix.Len())
	}
	if hits := ix.Search("turtles", 5); len(hits) != 0 {
		t.Error("stale postings survive reindex")
	}
	if hits := ix.Search("revenue", 5); len(hits) != 1 {
		t.Error("new content not searchable")
	}
}

func TestLexicalRemove(t *testing.T) {
	ix := NewLexical()
	for _, e := range seedEntries() {
		ix.Add(e)
	}
	ix.Remove("jarg:arpu")
	if ix.Len() != 4 {
		t.Errorf("len after remove = %d, want 4", ix.Len())
	}
	for _, h := range ix.Search("average revenue per user", 10) {
		if h.ID == "jarg:arpu" {
			t.Error("removed entry still retrieved")
		}
	}
}

func TestVectorSearchSemantic(t *testing.T) {
	ix := NewVector()
	for _, e := range seedEntries() {
		ix.Add(e)
	}
	hits := ix.Search("average revenue per user metric", 3)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].ID != "jarg:arpu" {
		t.Errorf("top hit = %s, want jarg:arpu", hits[0].ID)
	}
}

func TestVectorRemoveAndLen(t *testing.T) {
	ix := NewVector()
	for _, e := range seedEntries() {
		ix.Add(e)
	}
	if ix.Len() != 5 {
		t.Fatalf("len = %d", ix.Len())
	}
	ix.Remove("col:ftime")
	if ix.Len() != 4 {
		t.Errorf("len after remove = %d", ix.Len())
	}
}

func TestSearchDeterministic(t *testing.T) {
	lex := NewLexical()
	vec := NewVector()
	for i := 0; i < 50; i++ {
		e := Entry{ID: fmt.Sprintf("e%02d", i), Name: "metric", Content: "identical content for tie-breaking"}
		lex.Add(e)
		vec.Add(e)
	}
	l1 := lex.Search("identical content metric", 10)
	l2 := lex.Search("identical content metric", 10)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("lexical search not deterministic")
		}
	}
	v1 := vec.Search("identical content metric", 10)
	v2 := vec.Search("identical content metric", 10)
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

func TestMergeUnionsAndReranks(t *testing.T) {
	a := []Hit{{ID: "x", Score: 0.5}, {ID: "y", Score: 0.4}}
	b := []Hit{{ID: "y", Score: 0.4}, {ID: "z", Score: 0.3}}
	m := Merge(a, b, 10)
	if len(m) != 3 {
		t.Fatalf("merged = %d", len(m))
	}
	if m[0].ID != "y" {
		t.Errorf("top merged = %s, want y (0.8 summed)", m[0].ID)
	}
	if got := Merge(a, b, 1); len(got) != 1 {
		t.Errorf("k cap violated: %d", len(got))
	}
}

func TestTopKBound(t *testing.T) {
	ix := NewLexical()
	for i := 0; i < 20; i++ {
		ix.Add(Entry{ID: fmt.Sprintf("d%d", i), Name: "revenue", Content: "revenue doc"})
	}
	if got := len(ix.Search("revenue", 7)); got != 7 {
		t.Errorf("topK = %d, want 7", got)
	}
}
