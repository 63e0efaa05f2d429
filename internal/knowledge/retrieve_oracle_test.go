package knowledge_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"datalab/internal/benchgen"
	"datalab/internal/embed"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
	"datalab/internal/textutil"
)

// The retriever scores a candidate from features computed when its node
// was added and from one analysis of the question. This file keeps the
// formulas as they were when every question re-derived everything from the
// node's raw text, and holds the retriever to them with ==.

const oracleSeed = "bench-warehouse"

// oracleGraph is the benchmark's corpus: 24 enterprise tables learned one
// clone at a time, then the glossary.
func oracleGraph(t *testing.T) (*knowledge.Graph, []benchgen.EnterpriseTable) {
	t.Helper()
	tables := benchgen.GenerateEnterprise(oracleSeed, 24)
	gen := knowledge.NewGenerator(llm.NewClient(llm.GPT4, oracleSeed))
	g := knowledge.NewGraph()
	for _, et := range tables {
		bundle, err := gen.Generate(et.Schema, et.Scripts, nil)
		if err != nil {
			t.Fatal(err)
		}
		g = g.Clone()
		g.AddBundle(bundle, knowledge.LevelFull)
	}
	for _, j := range benchgen.Jargon() {
		g = g.Clone()
		g.AddJargon(j)
	}
	return g, tables
}

// referenceScore is the fine stage's score of n for query, from raw text.
func referenceScore(r *knowledge.Retriever, n *knowledge.Node, query string) float64 {
	qTokens := textutil.ContentTokens(query)
	qVec := embed.Text(query)
	content := n.Name + " " + n.Component("description") + " " + n.Component("usage") + " " + n.Component("definition")
	lexScore := textutil.OverlapRatio(textutil.ContentTokens(n.Name), qTokens)*0.6 +
		textutil.OverlapRatio(qTokens, textutil.ContentTokens(content))*0.4
	semScore := embed.Cosine(qVec, embed.Text(content))
	if semScore < 0 {
		semScore = 0
	}
	llmScore := r.Client.Score("rel:"+n.ID+"|"+query, 0, 1, (lexScore+semScore)/2)
	return r.LexWeight*lexScore + r.SemWeight*semScore + r.LLMWeight*llmScore
}

// referenceColumnNamed is the derived-column fallback as a walk: the first
// column node, in ID order, whose name equals col under case folding.
func referenceColumnNamed(g *knowledge.Graph, col string) *knowledge.Node {
	for _, id := range g.NodesOfType(knowledge.NodeColumn) {
		if n, _ := g.Node(id); n != nil && strings.EqualFold(n.Name, col) {
			return n
		}
	}
	return nil
}

// referenceColumnsScoped maps a Retrieve result to one table's columns
// the way RetrieveColumnsScoped does, with the walk above.
func referenceColumnsScoped(g *knowledge.Graph, all []knowledge.Scored, tableName string, topK int) []knowledge.Scored {
	var cols []knowledge.Scored
	for _, s := range all {
		switch s.Node.Type {
		case knowledge.NodeColumn:
			cols = append(cols, s)
		case knowledge.NodeJargon:
			col := s.Node.Component("maps_to_column")
			if col == "" {
				continue
			}
			n, ok := g.Node(knowledge.ColumnID(s.Node.Component("maps_to_table"), col))
			if !ok {
				n = referenceColumnNamed(g, col)
			}
			if n != nil {
				cols = append(cols, knowledge.Scored{Node: n, Score: s.Score})
			}
		}
	}
	prefix := "column:" + strings.ToLower(tableName) + "."
	seen := map[string]bool{}
	var out []knowledge.Scored
	for _, s := range cols {
		if seen[s.Node.ID] {
			continue
		}
		seen[s.Node.ID] = true
		if strings.HasPrefix(s.Node.ID, prefix) && len(out) < topK {
			out = append(out, s)
		}
	}
	return out
}

// referenceValueHints is the two-pass construction Runtime.Candidates
// used to run per question.
func referenceValueHints(g *knowledge.Graph) []knowledge.ValueHint {
	var hints []knowledge.ValueHint
	for _, id := range g.NodesOfType(knowledge.NodeValue) {
		n, _ := g.Node(id)
		col := ""
		if parent, ok := g.Node(n.Parent); ok {
			col = parent.Name
		}
		hints = append(hints, knowledge.ValueHint{Term: n.Name, Column: col, Value: n.Component("value")})
	}
	for _, id := range g.NodesOfType(knowledge.NodeJargon) {
		n, _ := g.Node(id)
		if v := n.Component("maps_to_value"); v != "" {
			hints = append(hints, knowledge.ValueHint{Term: n.Name, Column: n.Component("maps_to_column"), Value: v})
		}
	}
	return hints
}

// idOf names a node in a failure message (a printed Node carries its
// 256-dimension embedding).
func idOf(n *knowledge.Node) string {
	if n == nil {
		return "<none>"
	}
	return n.ID
}

// checkAgainstReference requires every returned score to equal the raw-
// text score and the list to be in (score desc, ID asc) order.
func checkAgainstReference(t *testing.T, label string, r *knowledge.Retriever, query string, got []knowledge.Scored) {
	t.Helper()
	for i, s := range got {
		if want := referenceScore(r, s.Node, query); s.Score != want {
			t.Errorf("%s %q: %s scored %v, raw-text score %v", label, query, s.Node.ID, s.Score, want)
		}
		if i > 0 {
			prev := got[i-1]
			if prev.Score < s.Score || (prev.Score == s.Score && prev.Node.ID >= s.Node.ID) {
				t.Errorf("%s %q: hit %d (%s, %v) out of order after (%s, %v)", label, query, i, s.Node.ID, s.Score, prev.Node.ID, prev.Score)
			}
		}
	}
}

func TestRetrieveMatchesRawTextReference(t *testing.T) {
	g, tables := oracleGraph(t)
	r := knowledge.NewRetriever(g, llm.NewClient(llm.GPT4, oracleSeed))
	pairs := benchgen.SchemaLinkingPairs(tables, 60, oracleSeed)

	// Every hit of every retrieval, in order, as ID and score bits.
	digest := sha256.New()
	record := func(hits []knowledge.Scored) {
		for _, s := range hits {
			digest.Write([]byte(s.Node.ID))
			var bits [8]byte
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(s.Score))
			digest.Write(bits[:])
		}
		digest.Write([]byte{0})
	}
	jargonMapped := 0
	for _, p := range pairs {
		query := r.Rewrite(p.Query, nil)

		all := r.Retrieve(query, r.CoarseK)
		if len(all) == 0 {
			t.Fatalf("%q retrieved nothing", query)
		}
		checkAgainstReference(t, "Retrieve", r, query, all)

		scoped := r.RetrieveColumnsScoped(query, p.Table, 10)
		want := referenceColumnsScoped(g, all, p.Table, 10)
		if !reflect.DeepEqual(scoped, want) {
			t.Errorf("RetrieveColumnsScoped(%q, %s) = %v, want %v", query, p.Table, scoped, want)
		}
		for _, s := range scoped {
			if s.Score != referenceScore(r, s.Node, query) {
				jargonMapped++ // carries the jargon node's score
			}
		}
		record(all)
		record(scoped)
	}
	if jargonMapped == 0 {
		t.Error("no question reached a column through a jargon node: the fallback went unexercised")
	}
	// Which candidates the coarse stage admits is not derivable from the
	// fine-stage formula, so membership is pinned by a digest of these 120
	// lists, recorded with this same test at the commit before the graph
	// dropped its second (full-text) index pair: there the same lists came
	// from the light pair, and they equalled the raw-text implementation's.
	const parentDigest = "e5c514bdf7a91b6321a295d466c5356feb62237855c9e7919632afb82f54a71c"
	if got := hex.EncodeToString(digest.Sum(nil)); got != parentDigest {
		t.Errorf("retrieval digest %s, want %s (recorded at the parent commit)", got, parentDigest)
	}
}

func TestValueHintsMatchTwoPassConstruction(t *testing.T) {
	g, _ := oracleGraph(t)
	want := referenceValueHints(g)
	if len(want) == 0 {
		t.Fatal("corpus has no value hints")
	}
	if got := g.ValueHints(); !reflect.DeepEqual(got, want) {
		t.Errorf("ValueHints = %v, want %v", got, want)
	}
	// Values arrive in bundle order, not ID order, and glossary terms that
	// map to a value sort behind every value node.
	g = g.Clone()
	g.AddJargon(knowledge.JargonEntry{Term: "zeta", Definition: "a product", MapsToColumn: "prod_class4_name", MapsToValue: "Zeta"})
	g.AddJargon(knowledge.JargonEntry{Term: "alpha", Definition: "a product", MapsToColumn: "prod_class4_name", MapsToValue: "Alpha"})
	g.AddJargon(knowledge.JargonEntry{Term: "plain", Definition: "maps to nothing"})
	want = referenceValueHints(g)
	if got := g.ValueHints(); !reflect.DeepEqual(got, want) {
		t.Errorf("after glossary: ValueHints = %v, want %v", got, want)
	}
	if n := len(want); want[n-1].Term != "zeta" || want[n-2].Term != "alpha" {
		t.Errorf("jargon hints not last, in ID order: %v", want[n-2:])
	}
}

// TestDerivedStateFollowsEveryAdd replays an insert-and-replace sequence
// that hits each way a node can change what the graph derives from it, and
// after every step holds the value hints and the column-name lookup to the
// walks they replaced.
func TestDerivedStateFollowsEveryAdd(t *testing.T) {
	comp := func(kv ...string) map[string]string {
		m := map[string]string{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
		}
		return m
	}
	steps := []struct {
		label string
		node  knowledge.Node
	}{
		{"value before its parent column exists",
			knowledge.Node{ID: "value:t.c=x", Type: knowledge.NodeValue, Name: "X", Parent: "column:t.c", Components: comp("value", "x")}},
		{"the parent arrives",
			knowledge.Node{ID: "column:t.c", Type: knowledge.NodeColumn, Name: "C", Parent: "table:t"}},
		{"a value that sorts first",
			knowledge.Node{ID: "value:a.c=y", Type: knowledge.NodeValue, Name: "Y", Parent: "column:t.c", Components: comp("value", "y")}},
		{"first column of a name",
			knowledge.Node{ID: "column:b.m#net_margin", Type: knowledge.NodeColumn, Name: "Net_Margin", Parent: "column:b.m"}},
		{"same name, smaller ID, other case",
			knowledge.Node{ID: "column:a.m#net_margin", Type: knowledge.NodeColumn, Name: "net_margin", Parent: "column:a.m"}},
		{"same name, larger ID",
			knowledge.Node{ID: "column:c.m#net_margin", Type: knowledge.NodeColumn, Name: "NET_MARGIN", Parent: "column:c.m"}},
		{"the first holder is renamed",
			knowledge.Node{ID: "column:a.m#net_margin", Type: knowledge.NodeColumn, Name: "gross_margin", Parent: "column:a.m"}},
		{"the next holder stops being a column",
			knowledge.Node{ID: "column:b.m#net_margin", Type: knowledge.NodeTable, Name: "Net_Margin"}},
		{"the parent column is renamed",
			knowledge.Node{ID: "column:t.c", Type: knowledge.NodeColumn, Name: "c2", Parent: "table:t"}},
		{"jargon mapping to a value",
			knowledge.Node{ID: "jargon:zz", Type: knowledge.NodeJargon, Name: "ZZ", Components: comp("maps_to_value", "z", "maps_to_column", "c2")}},
		{"jargon sorting before it",
			knowledge.Node{ID: "jargon:aa", Type: knowledge.NodeJargon, Name: "AA", Components: comp("maps_to_value", "a", "maps_to_column", "c2")}},
		{"jargon mapping to no value",
			knowledge.Node{ID: "jargon:mm", Type: knowledge.NodeJargon, Name: "MM", Components: comp("definition", "nothing")}},
		{"a jargon loses its value",
			knowledge.Node{ID: "jargon:aa", Type: knowledge.NodeJargon, Name: "AA", Components: comp("definition", "nothing")}},
		{"a value's text changes",
			knowledge.Node{ID: "value:t.c=x", Type: knowledge.NodeValue, Name: "X2", Parent: "column:t.c", Components: comp("value", "x2")}},
		{"a value node becomes jargon",
			knowledge.Node{ID: "value:a.c=y", Type: knowledge.NodeJargon, Name: "Y", Components: comp("maps_to_value", "y")}},
		{"a jargon node becomes a value",
			knowledge.Node{ID: "jargon:zz", Type: knowledge.NodeValue, Name: "ZZ", Parent: "column:nowhere", Components: comp("value", "z")}},
	}
	names := []string{"net_margin", "NET_MARGIN", "Gross_Margin", "c", "C2", "missing", ""}

	g := knowledge.NewGraph()
	var snapshots []*knowledge.Graph
	var snapshotHints [][]knowledge.ValueHint
	for _, step := range steps {
		// Each step lands on a clone, as under Platform's swap; every
		// earlier snapshot must keep the hints it had.
		snapshots = append(snapshots, g)
		snapshotHints = append(snapshotHints, referenceValueHints(g))
		g = g.Clone()
		node := step.node
		g.AddNodeForTest(&node)

		if got, want := g.ValueHints(), referenceValueHints(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ValueHints = %v, want %v", step.label, got, want)
		}
		for _, name := range names {
			got, ok := g.ColumnNamedForTest(name)
			if want := referenceColumnNamed(g, name); got != want || ok != (want != nil) {
				t.Errorf("%s: column named %q = %s, want %s", step.label, name, idOf(got), idOf(want))
			}
		}
		for i, old := range snapshots {
			if got := old.ValueHints(); !reflect.DeepEqual(got, snapshotHints[i]) {
				t.Errorf("%s: snapshot %d's hints changed to %v, want %v", step.label, i, got, snapshotHints[i])
			}
		}
	}
	if len(g.ValueHints()) == 0 {
		t.Error("sequence ended with no hints: nothing was checked")
	}
}

// TestJargonFallsBackToColumnByName drives the lookup the way questions
// reach it: a glossary term that names a column but no table.
func TestJargonFallsBackToColumnByName(t *testing.T) {
	g := knowledge.NewGraph()
	for _, id := range []string{"column:t2.m#net_margin", "column:t1.m#net_margin", "column:t3.m#net_margin"} {
		g.AddNodeForTest(&knowledge.Node{ID: id, Type: knowledge.NodeColumn, Name: "Net_Margin",
			Components: map[string]string{"description": "margin after cost"}})
	}
	r := knowledge.NewRetriever(g, llm.NewClient(llm.GPT4, "fallback"))
	for _, tc := range []struct {
		term, mapsTo string
		want         string // "" : the term reaches no column
	}{
		{"netm", "net_margin", "column:t1.m#net_margin"},
		{"netm upper", "NET_MARGIN", "column:t1.m#net_margin"},
		{"ghost", "no_such_column", ""},
	} {
		cl := g.Clone()
		cl.AddNodeForTest(&knowledge.Node{ID: "jargon:" + tc.term, Type: knowledge.NodeJargon, Name: tc.term,
			Components: map[string]string{"definition": "profit share", "maps_to_column": tc.mapsTo}})
		r.Graph = cl
		var viaJargon *knowledge.Node
		for _, s := range r.Retrieve(tc.term, r.CoarseK) {
			if s.Node.Type != knowledge.NodeJargon {
				continue
			}
			for _, c := range r.RetrieveColumns(tc.term, r.CoarseK) {
				if c.Score == s.Score {
					viaJargon = c.Node
				}
			}
		}
		want := referenceColumnNamed(cl, tc.mapsTo)
		if (want == nil) != (tc.want == "") || (want != nil && want.ID != tc.want) {
			t.Fatalf("%s: the walk finds %s, the case expects %q", tc.term, idOf(want), tc.want)
		}
		if viaJargon != want {
			t.Errorf("%s: reached %s through the glossary, want %s", tc.term, idOf(viaJargon), idOf(want))
		}
	}
}
