// Command datalab-bench regenerates every table and figure from the
// paper's evaluation section against the synthetic workloads. Run with
// -scale to trade runtime for precision (1.0 = full workload sizes).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"datalab/internal/experiments"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

func main() {
	scale := flag.Float64("scale", 1.0, "fraction of full workload sizes (0,1]")
	seed := flag.String("seed", "datalab-v1", "experiment seed")
	only := flag.String("only", "", "run a single experiment: table1|figure6|knowgen|table2|table3|figure7|table4|engine")
	flag.Parse()

	run := func(name string) bool { return *only == "" || *only == name }

	if run("table1") {
		fmt.Println("== Table I: end-to-end performance on research benchmarks ==")
		for _, row := range experiments.Table1(*seed, *scale) {
			fmt.Println(row.Format())
		}
		fmt.Println()
	}
	if run("figure6") {
		fmt.Println("== Figure 6: DataLab under different underlying LLMs ==")
		for _, row := range experiments.Figure6(*seed, *scale) {
			fmt.Println(row.Format())
		}
		fmt.Println()
	}
	if run("knowgen") {
		fmt.Println("== §VII-C.1: knowledge generation quality ==")
		n := int(50 * *scale)
		if n < 5 {
			n = 5
		}
		fmt.Println(experiments.KnowledgeGeneration(*seed, n).Format())
		fmt.Println()
	}
	if run("table2") {
		fmt.Println("== Table II: domain knowledge incorporation ablation ==")
		nLink := int(439 * *scale)
		nDSL := int(326 * *scale)
		if nLink < 30 {
			nLink = 30
		}
		if nDSL < 30 {
			nDSL = 30
		}
		fmt.Println(experiments.Table2(*seed, 8, nLink, nDSL).Format())
		fmt.Println()
	}
	if run("table3") {
		fmt.Println("== Table III: inter-agent communication ablation ==")
		nQ := int(100 * *scale)
		if nQ < 20 {
			nQ = 20
		}
		fmt.Println(experiments.Table3(*seed, 6, nQ).Format())
		fmt.Println()
	}
	if run("figure7") {
		fmt.Println("== Figure 7: DAG construction time ==")
		points, err := experiments.Figure7(*seed, 49)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figure7:", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatFigure7(points))
		fmt.Println()
	}
	if run("table4") {
		fmt.Println("== Table IV: cell-based context management ablation ==")
		nNB := int(50 * *scale)
		if nNB < 10 {
			nNB = 10
		}
		res, err := experiments.Table4(*seed, nNB)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table4:", err)
			os.Exit(1)
		}
		fmt.Println(res.Format())
	}
	if run("engine") {
		fmt.Println("== Engine: typed result consumption & prepared statements ==")
		if err := engineDemo(int(100_000 * *scale)); err != nil {
			fmt.Fprintln(os.Stderr, "engine:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// engineDemo contrasts the typed Result/Batch API against the legacy
// stringly materialization on one filtered scan, and shows a prepared
// statement amortizing parse cost across re-executions.
func engineDemo(rows int) error {
	if rows < 1000 {
		rows = 1000
	}
	t := table.MustNew("events",
		[]string{"id", "kind", "value"},
		[]table.Kind{table.KindInt, table.KindString, table.KindFloat})
	kinds := []string{"view", "click", "buy"}
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			table.Int(int64(i)),
			table.Str(kinds[i%len(kinds)]),
			table.Float(float64((i*7919)%10000)/100),
		)
	}
	cat := sqlengine.NewCatalog()
	cat.Register(t)
	ctx := context.Background()
	q := fmt.Sprintf("SELECT id, value FROM events WHERE id < %d", rows*9/10)

	start := time.Now()
	res, err := cat.QueryCtx(ctx, q)
	if err != nil {
		return err
	}
	var sum float64
	nbatches := 0
	for b := res.Next(); b != nil; b = res.Next() {
		nbatches++
		if fs, nulls, ok := b.Float64s(1); ok {
			for j, f := range fs {
				if !nulls[j] {
					sum += f
				}
			}
		}
	}
	typed := time.Since(start)
	fmt.Printf("typed batches:   %d rows in %d zero-copy batches, sum(value)=%.2f  (%v)\n",
		res.NumRows(), nbatches, sum, typed)

	// The legacy pipeline, end to end: execute into a materialized table,
	// then box and stringify every cell.
	start = time.Now()
	tbl, err := cat.Query(q)
	if err != nil {
		return err
	}
	strRows := make([][]string, tbl.NumRows())
	for i := range strRows {
		row := make([]string, tbl.NumCols())
		for j, v := range tbl.Row(i) {
			row[j] = v.AsString()
		}
		strRows[i] = row
	}
	stringly := time.Since(start)
	fmt.Printf("legacy strings:  %d [][]string rows materialized            (%v, %.1fx slower)\n",
		len(strRows), stringly, float64(stringly)/float64(typed))

	stmt, err := cat.Prepare("SELECT kind, COUNT(*) AS n, SUM(value) FROM events GROUP BY kind ORDER BY n DESC")
	if err != nil {
		return err
	}
	const reps = 100
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := stmt.Exec(ctx); err != nil {
			return err
		}
	}
	perExec := time.Since(start) / reps
	st := cat.PlanCacheStats()
	fmt.Printf("prepared stmt:   %d executions, %v/exec, zero re-parses\n", reps, perExec)
	fmt.Printf("plan cache:      %d hits, %d misses, %d entries\n", st.Hits, st.Misses, st.Size)
	return nil
}
