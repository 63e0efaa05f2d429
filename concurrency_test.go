package datalab

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentAskAndQuery drives one Platform from many goroutines mixing
// NL queries (which plan multi-agent executions and may register derived
// tables) with raw SQL. It exists to run under -race: the catalog's RWMutex,
// the platform's state mutex, and the engine's bounded worker pool all get
// exercised together.
func TestConcurrentAskAndQuery(t *testing.T) {
	p := MustNew(WithSeed("race-test"))
	cols := []string{"region", "product", "revenue"}
	var rows [][]string
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < 200; i++ {
		rows = append(rows, []string{
			regions[i%len(regions)],
			fmt.Sprintf("p%d", i%7),
			fmt.Sprintf("%d", (i*37)%500),
		})
	}
	if err := p.LoadRecords("sales", cols, rows); err != nil {
		t.Fatal(err)
	}

	asks := []string{
		"total revenue by region",
		"average revenue by product as a bar chart",
		"show anomalies in revenue",
	}
	sqls := []string{
		"SELECT region, SUM(revenue) FROM sales GROUP BY region ORDER BY 2 DESC",
		"SELECT product, COUNT(*) FROM sales WHERE revenue > 100 GROUP BY product",
		"SELECT * FROM sales WHERE region = 'east' LIMIT 10",
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if (g+i)%2 == 0 {
					if _, err := p.Ask(asks[(g+i)%len(asks)], "sales"); err != nil {
						t.Errorf("Ask: %v", err)
						return
					}
				} else {
					if _, err := p.QueryCtx(context.Background(), sqls[(g+i)%len(sqls)]); err != nil {
						t.Errorf("QueryCtx: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if n := len(p.Tables()); n < 1 {
		t.Fatalf("tables = %d", n)
	}
}

// TestConcurrentPreparedAndQueryCtx hammers one Platform with shared
// prepared statements, ad-hoc QueryCtx calls (all racing on the LRU plan
// cache), and mid-flight cancellations, from many goroutines under -race.
// One *Stmt is deliberately shared across goroutines: prepared handles are
// immutable and must be safe for concurrent Exec.
func TestConcurrentPreparedAndQueryCtx(t *testing.T) {
	p := MustNew(WithSeed("prepared-race"))
	cols := []string{"region", "revenue"}
	var rows [][]string
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < 500; i++ {
		rows = append(rows, []string{regions[i%len(regions)], fmt.Sprintf("%d", (i*37)%900)})
	}
	if err := p.LoadRecords("sales", cols, rows); err != nil {
		t.Fatal(err)
	}
	shared, err := p.Prepare("SELECT region, SUM(revenue) FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	adhoc := []string{
		"SELECT region, revenue FROM sales WHERE revenue > 400",
		"SELECT revenue FROM sales ORDER BY revenue DESC LIMIT 7",
		"SELECT COUNT(*) FROM sales WHERE region = 'east'",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 3 {
				case 0:
					res, err := shared.Exec(context.Background())
					if err != nil {
						t.Errorf("prepared Exec: %v", err)
						return
					}
					if res.NumRows() != 4 {
						t.Errorf("prepared Exec rows = %d", res.NumRows())
						return
					}
				case 1:
					if _, err := p.QueryCtx(context.Background(), adhoc[i%len(adhoc)]); err != nil {
						t.Errorf("QueryCtx: %v", err)
						return
					}
				default:
					ctx, cancel := context.WithCancel(context.Background())
					cancel() // pre-cancelled: must fail fast, never partially run
					if _, err := p.QueryCtx(ctx, adhoc[i%len(adhoc)]); err != context.Canceled {
						t.Errorf("cancelled QueryCtx err = %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentLearnAndAsk stresses the knowledge graph's copy-on-write
// snapshot swap under -race: writers keep running LearnKnowledge and
// AddGlossary (each of which clones the graph, mutates the clone, and
// publishes it) while readers Ask and Query against whatever snapshot
// their in-flight runtime captured. Before the COW swap this raced: the
// writers mutated graph maps that an Ask already past its RLock was
// reading through the retriever.
func TestConcurrentLearnAndAsk(t *testing.T) {
	p := MustNew(WithSeed("cow-race"))
	if err := p.LoadRecords("23_customer_bg",
		[]string{"prod_class4_name", "shouldincome_after", "ftime"},
		[][]string{
			{"TencentBI", "1000.5", "2024-01-05"},
			{"TencentCloud", "2500.0", "2024-02-03"},
			{"TencentBI", "1800.25", "2024-03-10"},
			{"TencentGames", "920.0", "2024-03-11"},
		}); err != nil {
		t.Fatal(err)
	}
	// Seed one bundle so readers have knowledge to retrieve from the start.
	learn := func(db string) error {
		return p.LearnKnowledge(db, "23_customer_bg",
			[]ColumnSchema{
				{Name: "prod_class4_name", Type: "string"},
				{Name: "shouldincome_after", Type: "double"},
				{Name: "ftime", Type: "date"},
			},
			[]Script{{
				ID:       "daily.sql",
				Language: "sql",
				Text: `SELECT prod_class4_name AS product_line_name, SUM(shouldincome_after) AS income_after_tax
FROM 23_customer_bg GROUP BY prod_class4_name`,
			}})
	}
	if err := learn("sales_db"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0: // learner: new database name each round → new nodes
				for i := 0; i < 3; i++ {
					if err := learn(fmt.Sprintf("db_%d_%d", g, i)); err != nil {
						t.Errorf("LearnKnowledge: %v", err)
						return
					}
				}
			case 1: // glossary writer: cheap, tight mutation loop
				for i := 0; i < 40; i++ {
					p.AddGlossary(Glossary{
						Term:         fmt.Sprintf("income%d_%d", g, i),
						Definition:   "income after tax",
						Aliases:      []string{fmt.Sprintf("rev%d_%d", g, i)},
						MapsToColumn: "shouldincome_after",
						MapsToTable:  "23_customer_bg",
					})
				}
			default: // readers: each Ask retrieves from its rt snapshot
				for i := 0; i < 8; i++ {
					if _, err := p.Ask("total income by product line", "23_customer_bg"); err != nil {
						t.Errorf("Ask: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The final snapshot must still resolve jargon end-to-end.
	ans, err := p.Ask("total income by product line", "23_customer_bg")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.SQL, "shouldincome_after") {
		t.Errorf("post-stress snapshot lost jargon resolution: %s", ans.SQL)
	}
}
