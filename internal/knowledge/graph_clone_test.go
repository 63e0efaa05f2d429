package knowledge

import (
	"fmt"
	"reflect"
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
	origNodes := orig.NumNodes()
	tableID := TableID("sales_db", "23_customer_bg")
	origKids := append([]string(nil), orig.Children(tableID)...)
	origColumns := orig.NodesOfType(NodeColumn)
	colID := origKids[0]
	origCol, _ := orig.Node(colID)

	client := llm.NewClient(llm.GPT4, "clone-test")
	before := NewRetriever(orig, client).Retrieve("income after tax", 5)

	cl := orig.Clone()
	if cl.NumNodes() != origNodes {
		t.Fatalf("clone nodes = %d, want %d", cl.NumNodes(), origNodes)
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

	if orig.NumNodes() != origNodes {
		t.Errorf("original node count changed after clone mutation: %d != %d", orig.NumNodes(), origNodes)
	}
	if _, ok := orig.Node("jargon:megarev"); ok {
		t.Error("clone's jargon node leaked into the original")
	}
	if got := orig.Children(tableID); !reflect.DeepEqual(got, origKids) {
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
	origKids = append([]string(nil), orig.Children(tableID)...)
	c1, c2 := orig.Clone(), orig.Clone()
	sides := map[string]*Graph{"c1": c1, "c2": c2, "orig": orig}
	for name, side := range sides {
		side.AddAlias(name+" alias", tableID)
	}
	for name, side := range sides {
		kids := side.Children(tableID)
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
				ret.RetrieveColumns("income", 5)
			}
		}()
	}
	wg.Wait()
}
