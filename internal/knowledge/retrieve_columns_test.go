package knowledge_test

import (
	"reflect"
	"runtime"
	"testing"

	"datalab/internal/benchgen"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
)

// TestRetrieveColumnsScopedMatchesEarlierDefinition asks every question of
// every table of the enterprise corpus and holds the one-loop
// RetrieveColumnsScoped to referenceColumnsScoped — retrieve CoarseK nodes,
// map each jargon node to its column, de-duplicate, filter by the table's
// prefix, take ten — Scored for Scored. The corpus is extended so two cases
// are met, and counted: a glossary term mapped to a column of one table
// while another is asked about, and an alias whose primary an earlier
// coarse hit already produced.
func TestRetrieveColumnsScopedMatchesEarlierDefinition(t *testing.T) {
	g, tables := oracleGraph(t)
	g = g.Clone()
	first, second := tables[0], tables[1]
	g.AddJargon(knowledge.JargonEntry{Term: "topline", Definition: "total income after tax of the business",
		Aliases: []string{"top line income"}, MapsToColumn: first.Schema.Columns[0].Name, MapsToTable: first.Schema.Name})
	g.AddAlias("income after tax", knowledge.ColumnID(second.Schema.Name, second.Schema.Columns[0].Name))
	r := knowledge.NewRetriever(g, llm.NewClient(llm.GPT4, oracleSeed))

	questions := []string{
		"topline income after tax by region", "top line income and refunds", "GMV merch value for each channel",
		"daily actives DAU by product", "avg revenue per user ARPU this year", "net margin for each region",
	}
	asked := map[string]bool{}
	for _, p := range benchgen.SchemaLinkingPairs(tables, 60, oracleSeed) {
		if q := r.Rewrite(p.Query, nil); !asked[q] {
			asked[q] = true
			questions = append(questions, q)
		}
	}

	var answered, viaOtherTablesJargon, aliasAfterPrimary int
	for _, q := range questions {
		produced := map[string]bool{}
		for _, id := range g.CoarseIDsForTest(q, r.CoarseK) {
			primary := g.Backtrack(id).ID
			if primary != id && produced[primary] {
				aliasAfterPrimary++
			}
			produced[primary] = true
		}
		all := r.Retrieve(q, r.CoarseK)
		for _, et := range tables {
			got := r.RetrieveColumnsScoped(q, et.Schema.Name, 10)
			want := referenceColumnsScoped(g, all, et.Schema.Name, 10)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RetrieveColumnsScoped(%q, %s) differs from the earlier definition:\n got %v\nwant %v", q, et.Schema.Name, ids(got), ids(want))
			}
			answered += len(got)
		}
		// The term maps into the first table; the loop above asked all 24.
		for _, s := range all {
			if s.Node.ID == "jargon:topline" {
				viaOtherTablesJargon++
			}
		}
	}
	t.Logf("%d questions x %d tables: %d columns returned, %d questions retrieved the cross-table term, %d aliases followed their primary",
		len(questions), len(tables), answered, viaOtherTablesJargon, aliasAfterPrimary)
	if answered == 0 || viaOtherTablesJargon == 0 || aliasAfterPrimary == 0 {
		t.Errorf("cases unexercised: %d columns returned, %d questions reached another table's column through the glossary, %d aliases followed their primary",
			answered, viaOtherTablesJargon, aliasAfterPrimary)
	}
}

func ids(hits []knowledge.Scored) []string {
	out := make([]string, len(hits))
	for i, s := range hits {
		out[i] = s.Node.ID
	}
	return out
}

// retrievalAllocs measures one RetrieveColumnsScoped over the enterprise
// graph: heap objects by testing.AllocsPerRun, bytes by the growth of
// MemStats.TotalAlloc over the same number of calls.
func retrievalAllocs(t *testing.T) (objects, bytes float64) {
	g, tables := oracleGraph(t)
	r := knowledge.NewRetriever(g, llm.NewClient(llm.GPT4, oracleSeed))
	p := benchgen.SchemaLinkingPairs(tables, 1, oracleSeed)[0]
	query := r.Rewrite(p.Query, nil)
	if len(r.RetrieveColumnsScoped(query, p.Table, 10)) == 0 {
		t.Fatalf("%q retrieves no column of %s", query, p.Table)
	}
	const runs = 200
	objects = testing.AllocsPerRun(runs, func() { r.RetrieveColumnsScoped(query, p.Table, 10) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r.RetrieveColumnsScoped(query, p.Table, 10)
	}
	runtime.ReadMemStats(&after)
	return objects, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestRetrievalAllocationPin: before the per-candidate loop ran over
// ordinals — string-keyed score and seen maps, a judgment key concatenated
// per candidate, three passes over the columns — this call allocated 183
// objects and 54,130 bytes (measured with this function at the parent
// commit); it now allocates 15 and 18,112, what is left being the question's
// tokens, the two hit lists, the score array and the scored list. The pin
// is 40 % of the earlier bytes.
func TestRetrievalAllocationPin(t *testing.T) {
	const bytesBefore, objectsBefore = 54130, 183
	objects, bytes := retrievalAllocs(t)
	t.Logf("%.0f objects, %.0f bytes per RetrieveColumnsScoped", objects, bytes)
	if bytes > 0.4*bytesBefore {
		t.Errorf("%.0f bytes per call, want under 40%% of %d", bytes, bytesBefore)
	}
	if objects > 0.4*objectsBefore {
		t.Errorf("%.0f objects per call, want under 40%% of %d", objects, objectsBefore)
	}
}
