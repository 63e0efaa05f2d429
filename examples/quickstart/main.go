// Quickstart: load a CSV, ask a natural-language question, get SQL, a
// result table, and a chart back — the minimal DataLab loop.
package main

import (
	"fmt"
	"log"
	"strings"

	"datalab"
)

const salesCSV = `region,product,revenue,sale_date
east,widget,100.5,2024-01-05
east,gadget,250.0,2024-02-03
west,widget,80.25,2024-03-10
west,gadget,300.0,2024-04-21
north,widget,120.0,2024-05-11
north,gadget,900.0,2024-06-18
south,widget,75.0,2024-07-02
south,gadget,410.0,2024-08-19
`

func main() {
	p := datalab.MustNew(datalab.WithSeed("quickstart"))
	if err := p.LoadCSV("sales", strings.NewReader(salesCSV)); err != nil {
		log.Fatal(err)
	}

	ans, err := p.Ask("draw a bar chart of total revenue by region", "sales")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("agents involved:", strings.Join(ans.AgentTrace, " -> "))
	fmt.Println("\ngenerated SQL:")
	fmt.Println(" ", ans.SQL)

	// The typed result API: iterate columnar batches with typed accessors
	// instead of materializing strings.
	fmt.Println("\nresult (typed batches):")
	fmt.Println(" ", strings.Join(ans.Result.Columns(), " | "))
	var total float64
	for b := ans.Result.Next(); b != nil; b = ans.Result.Next() {
		for i := 0; i < b.NumRows(); i++ {
			v, _ := b.Float64(1, i)
			fmt.Printf("  %s | %.2f\n", b.String(0, i), v)
			total += v
		}
	}
	fmt.Printf("  (total across regions: %.2f)\n", total)

	fmt.Println("\nchart specification:")
	fmt.Println(ans.ChartJSON)

	prompt, completion, calls := p.TokenUsage()
	fmt.Printf("\ntoken usage: %d prompt + %d completion over %d calls\n", prompt, completion, calls)
}
