// Notebook session: a scripted headless session over the backend the
// paper's JupyterLab frontend would call — multi-language cells, the live
// dependency DAG of Algorithm 3, a SQL cell re-run through the typed
// result API, and cell-based context management showing how the minimum
// relevant context keeps token costs down (§VI).
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"datalab"
)

func main() {
	p := datalab.MustNew(datalab.WithSeed("notebook"))
	if err := p.LoadRecords("sales",
		[]string{"region", "amount"},
		[][]string{
			{"east", "100"}, {"west", "250"}, {"north", "90"}, {"east", "175"},
		}); err != nil {
		log.Fatal(err)
	}

	nb := p.NewNotebook("regional-analysis")

	sqlID, err := nb.AddSQL("SELECT region, amount FROM sales", "raw")
	if err != nil {
		log.Fatal(err)
	}
	cleanID, err := nb.AddPython("clean = raw.dropna()")
	if err != nil {
		log.Fatal(err)
	}
	sumID, err := nb.AddPython(`summary = clean.groupby("region").sum()`)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := nb.AddMarkdown("## Revenue notes\nEast region threshold is 150."); err != nil {
		log.Fatal(err)
	}
	chartID, err := nb.AddChart(`{"mark":"bar","encoding":{"x":{"field":"region"},"y":{"field":"amount"}},"data":"summary"}`)
	if err != nil {
		log.Fatal(err)
	}
	// An unrelated scratch cell that context management must prune away.
	if _, err := nb.AddPython("scratch = unrelated_frame * 2"); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("notebook has %d cells\n", nb.NumCells())
	fmt.Printf("dependency edges: %s->%s, %s->%s, %s->%s\n",
		sqlID, cleanID, cleanID, sumID, sumID, chartID)
	for _, id := range []string{cleanID, sumID, chartID} {
		fmt.Printf("  %s depends on %v\n", id, nb.DependsOn(id))
	}

	// Re-run the SQL cell through the typed result API: the source was
	// plan-cached when the cell was added, so this skips the parser, and
	// the batches are zero-copy views over the catalog columns.
	res, err := nb.RunSQL(context.Background(), sqlID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSQL cell %s result (%d rows): %s\n", sqlID, res.NumRows(), strings.Join(res.Columns(), " | "))
	var total float64
	for b := res.Next(); b != nil; b = res.Next() {
		for i := 0; i < b.NumRows(); i++ {
			if v, ok := b.Float64(1, i); ok {
				total += v
			}
		}
	}
	fmt.Printf("  sum(amount) via typed batches: %.0f\n", total)

	full := nb.FullContextTokens()
	for _, query := range []string{
		"refine the sql that extracts raw",
		"clean the summary dataframe with pandas",
		"draw a chart of amounts by region",
	} {
		ctx := nb.ContextFor(query)
		fmt.Printf("\nquery: %q\n", query)
		fmt.Printf("  minimum relevant context: cells %s (%d of the notebook's %d tokens, %.0f%% less)\n",
			strings.Join(ctx.CellIDs, ", "), ctx.Tokens, full, 100*(1-float64(ctx.Tokens)/float64(full)))
	}
}
