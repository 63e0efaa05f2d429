package knowledge

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"datalab/internal/llm"
)

// TestGraphCloneIndependence checks the copy-on-write contract: mutating a
// clone (new bundles, jargon, aliases) must not change the original's node
// set, edges, or retrieval results, and vice versa.
func TestGraphCloneIndependence(t *testing.T) {
	g := newTestGenerator(t)
	b, err := g.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	orig := NewGraph()
	orig.AddBundle(b, LevelFull)
	origNodes := len(orig.nodes)
	tableID := TableID("sales_db", "23_customer_bg")
	origKids := append([]string(nil), orig.children[tableID]...)
	origColumns := orig.NodesOfType(NodeColumn)
	colID := origKids[0]
	origCol, _ := orig.Node(colID)

	client := llm.NewClient(llm.GPT4, "clone-test")
	before := NewRetriever(orig, client).Retrieve("income after tax", 5)

	cl := orig.Clone()
	if len(cl.nodes) != origNodes {
		t.Fatalf("clone nodes = %d, want %d", len(cl.nodes), origNodes)
	}
	cl.AddJargon(JargonEntry{
		Term:         "megarev",
		Definition:   "income after tax",
		Aliases:      []string{"mega revenue"},
		MapsToColumn: "shouldincome_after",
	})
	cl.AddAlias("bg table", tableID)
	// Re-adding an existing ID on the clone replaces it there only.
	cl.addNode(&Node{ID: colID, Type: NodeJargon, Name: "redefined", Parent: tableID,
		Components: map[string]string{"definition": "redefined on the clone"}})
	if n, _ := cl.Node(colID); n.Name != "redefined" {
		t.Errorf("clone resolves %q to %q, want the new definition", colID, n.Name)
	}
	if n, _ := orig.Node(colID); n != origCol {
		t.Errorf("original resolves %q to %+v, want the old definition", colID, n)
	}
	if got := orig.NodesOfType(NodeColumn); !reflect.DeepEqual(got, origColumns) {
		t.Errorf("original NodesOfType(column) changed: %d ids, want %d", len(got), len(origColumns))
	}
	if got := len(cl.NodesOfType(NodeColumn)); got != len(origColumns)-1 {
		t.Errorf("clone NodesOfType(column) = %d ids, want %d", got, len(origColumns)-1)
	}

	if len(orig.nodes) != origNodes {
		t.Errorf("original node count changed after clone mutation: %d != %d", len(orig.nodes), origNodes)
	}
	if _, ok := orig.Node("jargon:megarev"); ok {
		t.Error("clone's jargon node leaked into the original")
	}
	if got := orig.children[tableID]; !reflect.DeepEqual(got, origKids) {
		t.Errorf("original children changed: %v != %v", got, origKids)
	}
	if _, ok := cl.Node("jargon:megarev"); !ok {
		t.Error("clone missing its own jargon node")
	}

	// Retrieval over the original must be unaffected by the clone's new
	// index entries.
	after := NewRetriever(orig, client).Retrieve("income after tax", 5)
	if len(before) != len(after) {
		t.Fatalf("original retrieval changed: %d hits vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i].Node.ID != after[i].Node.ID || before[i].Score != after[i].Score {
			t.Errorf("hit %d changed: %v → %v", i, before[i], after[i])
		}
	}

	// Edge lists are shared up to their length at clone time: appends to
	// the same parent on the original and on two of its clones must each
	// land in that side's list only. The hazard needs spare capacity
	// behind the original's list, so pad until there is some.
	for i := 0; cap(orig.children[tableID]) == len(orig.children[tableID]); i++ {
		orig.AddAlias(fmt.Sprintf("pad %d", i), tableID)
	}
	origKids = append([]string(nil), orig.children[tableID]...)
	c1, c2 := orig.Clone(), orig.Clone()
	sides := map[string]*Graph{"c1": c1, "c2": c2, "orig": orig}
	for name, side := range sides {
		side.AddAlias(name+" alias", tableID)
	}
	for name, side := range sides {
		kids := side.children[tableID]
		want := append(append([]string(nil), origKids...), "alias:"+name+" alias->"+tableID)
		if !reflect.DeepEqual(kids, want) {
			t.Errorf("%s children = %v, want %v", name, kids, want)
		}
	}
}

// TestGraphCloneConcurrentMutation retrieves from the original graph on
// several goroutines while clones are repeatedly taken and mutated — the
// exact interleaving the platform's copy-on-write swap produces. Run
// under -race in CI.
func TestGraphCloneConcurrentMutation(t *testing.T) {
	g := newTestGenerator(t)
	b, err := g.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	orig := NewGraph()
	orig.AddBundle(b, LevelFull)
	client := llm.NewClient(llm.GPT4, "clone-race")

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := orig
			for i := 0; i < 10; i++ {
				cl := cur.Clone()
				cl.AddJargon(JargonEntry{
					Term:       fmt.Sprintf("term%d_%d", w, i),
					Definition: "income after tax metric",
				})
				cur = cl
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ret := NewRetriever(orig, client)
			for i := 0; i < 20; i++ {
				ret.Retrieve("total income after tax by business group", 5)
				ret.RetrieveColumnsScoped("income", "23_customer_bg", 5)
			}
		}()
	}
	wg.Wait()
}

// TestGraphCloneDerivedStateIsolation covers the state the graph derives
// from its nodes — per-node fine-stage features, the value hints, the
// column-name lookup — under the swap protocol: while goroutines retrieve
// on the original, a clone re-adds a column under a new description, adds
// a column that takes over a name, a value node and a glossary term. The
// original answers bit for bit as before; the clone sees the new state.
// Run under -race in CI.
func TestGraphCloneDerivedStateIsolation(t *testing.T) {
	g := newTestGenerator(t)
	b, err := g.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	orig := NewGraph()
	orig.AddBundle(b, LevelFull)
	// A glossary term that reaches its column by name only.
	orig.AddJargon(JargonEntry{Term: "yearly", Definition: "income over twelve months", MapsToColumn: "annualized_income"})
	client := llm.NewClient(llm.GPT4, "derived-isolation")
	const query = "yearly income after tax by product line"

	type answer struct {
		full, cols []Scored
		hints      []ValueHint
		named      *Node
	}
	ask := func(graph *Graph) answer {
		r := NewRetriever(graph, client)
		named, _ := graph.columnNamed("ANNUALIZED_INCOME")
		return answer{r.Retrieve(query, 20), r.RetrieveColumnsScoped(query, "23_customer_bg", 20), graph.ValueHints(), named}
	}
	want := ask(orig)
	if want.named == nil || len(want.hints) == 0 || len(want.cols) == 0 {
		t.Fatal("fixture lacks a derived column, value hints or column hits")
	}
	wantHints := append([]ValueHint(nil), want.hints...)

	colID := ColumnID("23_customer_bg", "shouldincome_after")
	oldCol, _ := orig.Node(colID)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := ask(orig); !reflect.DeepEqual(got, want) {
					t.Errorf("original answered differently while a clone was mutated")
					return
				}
			}
		}()
	}
	cl := orig.Clone()
	cl.addNode(&Node{ID: colID, Type: NodeColumn, Name: oldCol.Name, Parent: oldCol.Parent,
		Components: map[string]string{"type": "double", "description": "yearly bonus pool"}})
	cl.addNode(&Node{ID: "column:00_first.x#annualized_income", Type: NodeColumn, Name: "Annualized_Income"})
	cl.addNode(&Node{ID: "value:23_customer_bg.prod_class4_name=aaa", Type: NodeValue, Name: "AAA",
		Parent: ColumnID("23_customer_bg", "prod_class4_name"), Components: map[string]string{"value": "AAA"}})
	cl.AddJargon(JargonEntry{Term: "bi suite", Definition: "the BI product", MapsToColumn: "prod_class4_name", MapsToValue: "TencentBI"})
	wg.Wait()

	if got := ask(orig); !reflect.DeepEqual(got, want) {
		t.Error("original answers differently after the clone's mutation")
	}
	if !reflect.DeepEqual(want.hints, wantHints) {
		t.Errorf("the hint slice the original handed out was written to: %v, want %v", want.hints, wantHints)
	}

	got := ask(cl)
	if got.named == nil || got.named.ID != "column:00_first.x#annualized_income" {
		t.Errorf("clone resolves the name to %v, want the column added with the smallest ID", got.named)
	}
	if len(got.hints) != len(want.hints)+2 || got.hints[0].Term != "AAA" || got.hints[len(got.hints)-1].Term != "bi suite" {
		t.Errorf("clone hints = %v, want the original's plus AAA first and the glossary term last", got.hints)
	}
	score := func(hits []Scored) float64 {
		for _, s := range hits {
			if s.Node.ID == colID {
				return s.Score
			}
		}
		return -1
	}
	if before, after := score(want.full), score(got.full); before < 0 || after < 0 || before == after {
		t.Errorf("re-added column scores %v on the clone and %v on the original, want both present and different", after, before)
	}
}

// TestGraphCloneRelearnKeepsEdgesOnce: re-adding an ID keeps its edge, and
// its ordinal, rather than appending another. A table learned three times —
// each time on a clone, as Platform.LearnKnowledge does — lists each child
// once, and every earlier snapshot lists what it listed.
func TestGraphCloneRelearnKeepsEdgesOnce(t *testing.T) {
	g := newTestGenerator(t)
	b, err := g.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	first := NewGraph()
	first.AddBundle(b, LevelFull)
	parents := append(first.NodesOfType(NodeDatabase), append(first.NodesOfType(NodeTable), first.NodesOfType(NodeColumn)...)...)
	want := map[string][]string{}
	for _, id := range parents {
		want[id] = slices.Clone(first.children[id])
		if kids := want[id]; len(slices.Compact(slices.Sorted(slices.Values(kids)))) != len(kids) {
			t.Fatalf("one AddBundle already lists a child of %s twice: %v", id, kids)
		}
	}
	if len(want["database:sales_db"]) != 1 || len(want[TableID("sales_db", "23_customer_bg")]) == 0 {
		t.Fatalf("fixture has no database -> table -> column edges: %v", want)
	}

	cur := first
	for round := 0; round < 2; round++ {
		cur = cur.Clone()
		cur.AddBundle(b, LevelFull)
		if len(cur.nodes) != len(first.nodes) || len(cur.order) != len(first.order) {
			t.Fatalf("round %d: %d nodes at %d ordinals, want %d at %d", round, len(cur.nodes), len(cur.order), len(first.nodes), len(first.order))
		}
		for _, side := range []*Graph{first, cur} {
			for _, id := range parents {
				if got := side.children[id]; !slices.Equal(got, want[id]) {
					t.Errorf("round %d: children[%s] = %v, want %v", round, id, got, want[id])
				}
			}
		}
		for ord, n := range cur.order {
			if n.ord != int32(ord) || first.order[ord].ID != n.ID {
				t.Fatalf("round %d: ordinal %d holds %s (ord %d), the first graph has %s there", round, ord, n.ID, n.ord, first.order[ord].ID)
			}
		}
	}
}

// TestGraphCloneReparent: a node re-added under another parent moves its
// edge — on the clone it was re-added to, into slices the original does not
// share.
func TestGraphCloneReparent(t *testing.T) {
	orig := NewGraph()
	for _, n := range []*Node{
		{ID: "table:a", Type: NodeTable, Name: "a"},
		{ID: "table:b", Type: NodeTable, Name: "b"},
		{ID: "column:a.x", Type: NodeColumn, Name: "x", Parent: "table:a"},
		{ID: "column:a.y", Type: NodeColumn, Name: "y", Parent: "table:a"},
		{ID: "column:a.z", Type: NodeColumn, Name: "z", Parent: "table:a"},
	} {
		orig.addNode(n)
	}
	cl := orig.Clone()
	cl.addNode(&Node{ID: "column:a.y", Type: NodeColumn, Name: "y", Parent: "table:b"})
	cl.addNode(&Node{ID: "column:a.z", Type: NodeColumn, Name: "z"}) // and one orphaned
	cl.addNode(&Node{ID: "column:a.w", Type: NodeColumn, Name: "w", Parent: "table:a"})

	for _, tc := range []struct {
		label  string
		g      *Graph
		parent string
		want   []string
	}{
		{"original a", orig, "table:a", []string{"column:a.x", "column:a.y", "column:a.z"}},
		{"original b", orig, "table:b", nil},
		{"clone a", cl, "table:a", []string{"column:a.x", "column:a.w"}},
		{"clone b", cl, "table:b", []string{"column:a.y"}},
	} {
		if got := tc.g.children[tc.parent]; !slices.Equal(got, tc.want) {
			t.Errorf("%s: children = %v, want %v", tc.label, got, tc.want)
		}
	}
	// Moving back restores the edge at the end of the list, once.
	cl.addNode(&Node{ID: "column:a.y", Type: NodeColumn, Name: "y", Parent: "table:a"})
	if got, want := cl.children["table:a"], []string{"column:a.x", "column:a.w", "column:a.y"}; !slices.Equal(got, want) {
		t.Errorf("after moving back: children[table:a] = %v, want %v", got, want)
	}
	if got := cl.children["table:b"]; len(got) != 0 {
		t.Errorf("after moving back: children[table:b] = %v, want none", got)
	}
	if got, want := orig.children["table:a"], []string{"column:a.x", "column:a.y", "column:a.z"}; !slices.Equal(got, want) {
		t.Errorf("original's children[table:a] = %v after the clone's moves, want %v", got, want)
	}
}
