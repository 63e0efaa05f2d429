// Streaming ingest: appending to a live table while queries run. Shows
// the three guarantees of the snapshot storage: staged rows are invisible
// until PublishErr, a publish is one atomic snapshot swap visible to the
// next query, and a Result opened earlier keeps reading the snapshot it
// started on — no reader ever blocks on ingest.
package main

import (
	"context"
	"fmt"
	"log"

	"datalab"
)

func main() {
	p := datalab.MustNew(datalab.WithSeed("streaming-ingest"))

	// Seed a small orders table.
	columns := []string{"id", "region", "amount"}
	var rows [][]string
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < 1000; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i),
			regions[i%len(regions)],
			fmt.Sprintf("%d", (i*13)%500),
		})
	}
	if err := p.LoadRecords("orders", columns, rows); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	count := func() int64 {
		res, err := p.QueryCtx(ctx, "SELECT COUNT(*) FROM orders")
		if err != nil {
			log.Fatal(err)
		}
		n, _ := res.Next().Int64(0, 0)
		return n
	}

	// 1. Open a cursor BEFORE any ingest: it pins today's snapshot.
	pinned, err := p.QueryCtx(ctx, "SELECT id FROM orders")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Stream new orders in. Appends stage invisibly; PublishErr makes
	// the whole batch visible in one atomic snapshot swap.
	in, err := p.Ingest("orders")
	if err != nil {
		log.Fatal(err)
	}
	for i := 1000; i < 1500; i++ {
		if err := in.Append(fmt.Sprintf("%d", i), regions[i%len(regions)], "250"); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("staged %d rows; queries still see %d\n", in.Pending(), count())
	visible, err := in.PublishErr()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published: queries now see %d rows (total %d)\n", count(), visible)

	// Bulk convenience: AppendRecords stages and publishes in one call.
	if err := p.AppendRecords("orders", [][]string{
		{"1500", "east", "75"},
		{"1501", "west", "125"},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after AppendRecords: %d rows\n", count())

	// 3. The pinned cursor drains its own snapshot: exactly the 1000
	// rows that existed when it was opened, three publishes ago.
	pinnedRows := 0
	for b := pinned.Next(); b != nil; b = pinned.Next() {
		pinnedRows += b.NumRows()
	}
	fmt.Printf("cursor opened before ingest saw %d rows\n", pinnedRows)

	// Aggregates always land on one published snapshot, never a blend.
	res, err := p.QueryCtx(ctx, "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region")
	if err != nil {
		log.Fatal(err)
	}
	for b := res.Next(); b != nil; b = res.Next() {
		for i := 0; i < b.NumRows(); i++ {
			region := b.String(0, i)
			n, _ := b.Int64(1, i)
			sum, _ := b.Float64(2, i)
			fmt.Printf("  %-6s n=%-4d sum=%.0f\n", region, n, sum)
		}
	}
}
