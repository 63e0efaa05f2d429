package sqlengine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"datalab/internal/table"
)

// Concurrency battery for streaming ingest: writers append and publish
// while readers query, under -race. The correctness claim under test is
// snapshot consistency — every Result reflects exactly one published
// snapshot, never a blend of two — plus the non-blocking guarantee that
// open cursors survive any number of publishes.

// stressScale reads DATALAB_STRESS_SCALE (default 1): the dedicated CI
// concurrency job runs the battery several times longer than the default
// `go test -race ./...` pass.
func stressScale() int {
	if s := os.Getenv("DATALAB_STRESS_SCALE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// streamCatalog registers the ingest target: v holds the global row index
// and p = v % 2, so for any published prefix of c rows
// SUM(v) = c*(c-1)/2, COUNT(p=0) = ceil(c/2), COUNT(p=1) = floor(c/2).
// Those closed forms are the blend detectors: a count from one snapshot
// combined with a sum (or a parity split) from another cannot satisfy
// them.
func streamCatalog() *Catalog {
	c := NewCatalog()
	c.Register(table.MustNew("stream", []string{"v", "p"}, []table.Kind{table.KindInt, table.KindInt}))
	c.Register(table.MustNew("side", []string{"x"}, []table.Kind{table.KindInt}))
	return c
}

func streamRows(start, n int) [][]table.Value {
	rows := make([][]table.Value, n)
	for i := range rows {
		v := int64(start + i)
		rows[i] = []table.Value{table.Int(v), table.Int(v % 2)}
	}
	return rows
}

// TestConcurrentIngestQueryStress: N writers append batches to the shared
// stream table (serialized by the bookkeeping lock that records every
// size a publish could expose) while more writers hammer a second table
// through the raw Appender with no external serialization, and M readers
// run aggregates, grouped queries, and the differential corpus the fuzz
// harness uses. Readers assert the closed-form invariants above and that
// every observed row count was recorded as published.
func TestConcurrentIngestQueryStress(t *testing.T) {
	scale := stressScale()
	const writers, readers, batchN = 4, 6, 17
	batches := 30 * scale

	c := streamCatalog()
	stream, _ := c.Appender("stream")
	side, _ := c.Appender("side")

	var book struct {
		sync.Mutex
		total     int
		published map[int64]bool
	}
	book.published = map[int64]bool{0: true}

	var wg, writerWG sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, writers*2+readers+2)

	// Stream writers: append a batch and record the size it will publish
	// at before the swap, so any count a reader can ever observe is
	// already in the published set.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < batches; i++ {
				book.Lock()
				start := book.total
				if err := appendRows(stream, streamRows(start, batchN)...); err != nil {
					book.Unlock()
					errs <- err
					return
				}
				book.total = start + batchN
				book.published[int64(book.total)] = true
				_, err := stream.PublishErr()
				book.Unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Side writers contend directly on one Appender's internal mutex —
	// no outer serialization — exercising append/publish interleavings.
	// Whole batches per Append call keep counts multiples of batchN.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			rows := make([][]table.Value, batchN)
			for i := 0; i < batches; i++ {
				for j := range rows {
					rows[j] = []table.Value{table.Int(int64(i*batchN + j))}
				}
				if err := appendRows(side, rows...); err != nil {
					errs <- err
					return
				}
				if _, err := side.PublishErr(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	checkInvariant := func(g int) error {
		res, err := c.QueryCtx(context.Background(), "SELECT COUNT(*), SUM(v) FROM stream")
		if err != nil {
			return err
		}
		b := res.Next()
		cnt, ok := b.Int64(0, 0)
		if !ok {
			return fmt.Errorf("reader %d: COUNT came back non-int", g)
		}
		sum, ok := b.Float64(1, 0)
		if !ok && cnt != 0 {
			return fmt.Errorf("reader %d: SUM NULL at count %d", g, cnt)
		}
		if want := float64(cnt) * float64(cnt-1) / 2; cnt > 0 && sum != want {
			return fmt.Errorf("reader %d: blended snapshot: COUNT=%d SUM=%v want %v", g, cnt, sum, want)
		}
		book.Lock()
		okSize := book.published[cnt]
		book.Unlock()
		if !okSize {
			return fmt.Errorf("reader %d: observed count %d was never published", g, cnt)
		}
		return nil
	}

	checkGrouped := func(g int) error {
		res, err := c.QueryCtx(context.Background(), "SELECT p, COUNT(*), SUM(v) FROM stream GROUP BY p ORDER BY p")
		if err != nil {
			return err
		}
		var total, even, odd int64
		var sum float64
		for b := res.Next(); b != nil; b = res.Next() {
			for r := 0; r < b.NumRows(); r++ {
				p, _ := b.Int64(0, r)
				n, _ := b.Int64(1, r)
				s, _ := b.Float64(2, r)
				total += n
				sum += s
				if p == 0 {
					even = n
				} else {
					odd = n
				}
			}
		}
		if want := float64(total) * float64(total-1) / 2; total > 0 && sum != want {
			return fmt.Errorf("reader %d: grouped sums blend: total=%d sum=%v want %v", g, total, sum, want)
		}
		if even != (total+1)/2 || odd != total/2 {
			return fmt.Errorf("reader %d: parity split blend: total=%d even=%d odd=%d", g, total, even, odd)
		}
		book.Lock()
		okSize := book.published[total]
		book.Unlock()
		if !okSize {
			return fmt.Errorf("reader %d: grouped total %d was never published", g, total)
		}
		return nil
	}

	checkSide := func(g int) error {
		res, err := c.QueryCtx(context.Background(), "SELECT COUNT(*) FROM side")
		if err != nil {
			return err
		}
		cnt, _ := res.Next().Int64(0, 0)
		if cnt%batchN != 0 {
			return fmt.Errorf("reader %d: side count %d is not whole batches of %d", g, cnt, batchN)
		}
		return nil
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var err error
				switch g % 3 {
				case 0:
					err = checkInvariant(g)
				case 1:
					err = checkGrouped(g)
				case 2:
					err = checkSide(g)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}

	// Corpus readers: the fuzz generator's query shapes over a second
	// randomized catalog whose tables are being appended to concurrently.
	// No differential assertion is possible mid-ingest (each execution
	// pins its own snapshot); the requirement is that every execution
	// completes or errors cleanly under -race while chunks land.
	rng := rand.New(rand.NewSource(7))
	fc := randCatalog(rng, 300)
	dataApp, _ := fc.Appender("data")
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for {
			select {
			case <-done:
				return
			default:
			}
			for i := 0; i < 4; i++ {
				if err := appendRows(dataApp, randDataRow(rng)); err != nil {
					errs <- err
					return
				}
			}
			if _, err := dataApp.PublishErr(); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(13))
		for {
			select {
			case <-done:
				return
			default:
			}
			q := randQuery(rng)
			res, err := fc.QueryCtx(context.Background(), q)
			if err != nil {
				continue // generated queries may legitimately error
			}
			for b := res.Next(); b != nil; b = res.Next() {
			}
		}
	}()

	// Writers finish, then readers get the stop signal; every reader ran
	// concurrently with live publishes for the whole writer phase.
	writerWG.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Steady state: the final snapshot must carry every row with exact
	// aggregates, and the chunk structure must partition it.
	if err := checkInvariant(-1); err != nil {
		t.Fatal(err)
	}
	snap, _ := c.Snapshot("stream")
	if snap.NumRows() != writers*batches*batchN {
		t.Fatalf("final snapshot rows = %d, want %d", snap.NumRows(), writers*batches*batchN)
	}
	rows := 0
	for i := 0; i < snap.NumChunks(); i++ {
		rows += snap.Chunk(i).Column(0).Len()
	}
	if rows != snap.NumRows() {
		t.Fatalf("chunks cover %d of %d rows", rows, snap.NumRows())
	}
}

// TestConcurrentWindowQueryStress runs window-function queries against the
// stream table while writers append and publish, under -race. Window
// frames are computed over the whole filtered input, so a blended
// snapshot is maximally visible: every row of the result constrains the
// full prefix. For a published prefix of c rows (v = 0..c-1, p = v % 2):
//
//   - ROW_NUMBER() OVER (ORDER BY v) at row v is v+1,
//   - SUM(v) OVER (PARTITION BY p ORDER BY v) at row v is m(m-1) + p*m
//     with m = (v-p)/2 + 1 (the count of partition rows up to v),
//   - SUM(v) OVER (ORDER BY v ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)
//     at row v is 2v-1 (v at row 0),
//
// and the observed row count must be a published size. Any torn frame —
// a partition missing a row of its snapshot, or a frame crossing into a
// newer chunk — breaks a closed form at some row.
func TestConcurrentWindowQueryStress(t *testing.T) {
	scale := stressScale()
	const writers, readers, batchN = 2, 4, 9
	batches := 20 * scale

	c := streamCatalog()
	stream, _ := c.Appender("stream")

	var book struct {
		sync.Mutex
		total     int
		published map[int64]bool
	}
	book.published = map[int64]bool{0: true}

	var wg, writerWG sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < batches; i++ {
				book.Lock()
				start := book.total
				if err := appendRows(stream, streamRows(start, batchN)...); err != nil {
					book.Unlock()
					errs <- err
					return
				}
				book.total = start + batchN
				book.published[int64(book.total)] = true
				_, err := stream.PublishErr()
				book.Unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	checkPartitioned := func(g int) error {
		res, err := c.QueryCtx(context.Background(),
			"SELECT v, ROW_NUMBER() OVER (ORDER BY v) AS rn, SUM(v) OVER (PARTITION BY p ORDER BY v) AS rs FROM stream ORDER BY v")
		if err != nil {
			return err
		}
		var seen int64
		for b := res.Next(); b != nil; b = res.Next() {
			for r := 0; r < b.NumRows(); r++ {
				v, _ := b.Int64(0, r)
				rn, _ := b.Int64(1, r)
				rs, _ := b.Float64(2, r)
				if v != seen || rn != seen+1 {
					return fmt.Errorf("reader %d: row %d has v=%d rn=%d", g, seen, v, rn)
				}
				p := v % 2
				m := (v-p)/2 + 1
				if want := float64(m*(m-1) + p*m); rs != want {
					return fmt.Errorf("reader %d: torn window frame at v=%d: rs=%v want %v", g, v, rs, want)
				}
				seen++
			}
		}
		book.Lock()
		okSize := book.published[seen]
		book.Unlock()
		if !okSize {
			return fmt.Errorf("reader %d: window query saw %d rows, never published", g, seen)
		}
		return nil
	}

	checkMovingFrame := func(g int) error {
		res, err := c.QueryCtx(context.Background(),
			"SELECT v, SUM(v) OVER (ORDER BY v ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS ms FROM stream ORDER BY v")
		if err != nil {
			return err
		}
		var seen int64
		for b := res.Next(); b != nil; b = res.Next() {
			for r := 0; r < b.NumRows(); r++ {
				v, _ := b.Int64(0, r)
				ms, _ := b.Float64(1, r)
				want := float64(2*v - 1)
				if v == 0 {
					want = 0
				}
				if v != seen || ms != want {
					return fmt.Errorf("reader %d: torn ROWS frame at row %d: v=%d ms=%v want %v", g, seen, v, ms, want)
				}
				seen++
			}
		}
		book.Lock()
		okSize := book.published[seen]
		book.Unlock()
		if !okSize {
			return fmt.Errorf("reader %d: moving-frame query saw %d rows, never published", g, seen)
		}
		return nil
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var err error
				if g%2 == 0 {
					err = checkPartitioned(g)
				} else {
					err = checkMovingFrame(g)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}

	writerWG.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Steady state: the final snapshot satisfies both closed forms in full.
	if err := checkPartitioned(-1); err != nil {
		t.Fatal(err)
	}
	if err := checkMovingFrame(-1); err != nil {
		t.Fatal(err)
	}
}

// TestCursorAcrossSnapshots holds one lazy Result cursor open across many
// published snapshots: the acceptance criterion that appends never block
// — or bleed into — an in-flight cursor. The cursor must drain exactly
// the rows of the snapshot it was planned on, cell for cell, while the
// live table grows by 12 published snapshots.
func TestCursorAcrossSnapshots(t *testing.T) {
	const initial, growBatches, growN = 5000, 12, 100
	c := streamCatalog()
	app, _ := c.Appender("stream")
	if err := appendRows(app, streamRows(0, initial)...); err != nil {
		t.Fatal(err)
	}
	start, err := app.PublishErr()
	if err != nil {
		t.Fatal(err)
	}
	startVersion := start.Version()

	res, err := c.QueryCtx(context.Background(), "SELECT v FROM stream")
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	b := res.Next() // first batch out before any ingest
	for i := 0; i < growBatches; i++ {
		if err := appendRows(app, streamRows(initial+i*growN, growN)...); err != nil {
			t.Fatal(err)
		}
		if _, err := app.PublishErr(); err != nil {
			t.Fatal(err)
		}
		// Interleave cursor progress with publishes.
		if b != nil {
			for r := 0; r < b.NumRows(); r++ {
				if v, ok := b.Int64(0, r); !ok || v != int64(read) {
					t.Fatalf("row %d: got %d (ok=%v)", read, v, ok)
				}
				read++
			}
			b = res.Next()
		}
	}
	if got := app.Snapshot().Version() - startVersion; got < 10 {
		t.Fatalf("only %d snapshots published while cursor open, want >= 10", got)
	}
	for ; b != nil; b = res.Next() {
		for r := 0; r < b.NumRows(); r++ {
			if v, ok := b.Int64(0, r); !ok || v != int64(read) {
				t.Fatalf("row %d: got %d (ok=%v)", read, v, ok)
			}
			read++
		}
	}
	if read != initial {
		t.Fatalf("cursor drained %d rows, want exactly its snapshot's %d", read, initial)
	}
	// A fresh query sees all the growth.
	res2, err := c.QueryCtx(context.Background(), "SELECT COUNT(*) FROM stream")
	if err != nil {
		t.Fatal(err)
	}
	if cnt, _ := res2.Next().Int64(0, 0); cnt != initial+growBatches*growN {
		t.Fatalf("fresh query sees %d rows, want %d", cnt, initial+growBatches*growN)
	}
}

// TestCatalogAppend covers appending through the catalog's write head —
// Appender.Append, then one PublishErr — and snapshot acquisition through
// Catalog.Snapshot.
func TestCatalogAppend(t *testing.T) {
	c := streamCatalog()
	app, ok := c.Appender("stream")
	if !ok {
		t.Fatal("no appender for a registered table")
	}
	if err := appendRows(app, []table.Value{table.Int(0), table.Int(0)}, []table.Value{table.Int(1), table.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := app.PublishErr(); err != nil {
		t.Fatal(err)
	}
	out, err := queryTable(c, "SELECT COUNT(*), SUM(v) FROM stream")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Columns[0].Value(0); table.Compare(got, table.Int(2)) != 0 {
		t.Fatalf("count after append = %v", got)
	}
	if _, ok := c.Appender("nope"); ok {
		t.Fatal("unknown table has an appender")
	}
	snap, ok := c.Snapshot("STREAM") // case-insensitive like Table
	if !ok || snap.NumRows() != 2 || snap.Version() != 2 {
		t.Fatalf("snapshot lookup: ok=%v rows=%d v=%d", ok, snap.NumRows(), snap.Version())
	}
}

// TestSchemaChangeInvalidatesPlanCache: re-registering a table with a
// different schema clears the plan cache and bumps Invalidations;
// re-registering with the same schema (a data reload) does not.
func TestSchemaChangeInvalidatesPlanCache(t *testing.T) {
	c := NewCatalog()
	reg := func(kind table.Kind) {
		tb := table.MustNew("t", []string{"a"}, []table.Kind{kind})
		tb.MustAppendRow(table.Int(1))
		c.Register(tb)
	}
	reg(table.KindInt)
	if _, err := queryTable(c, "SELECT a FROM t WHERE a > 0"); err != nil {
		t.Fatal(err)
	}
	if st := c.PlanCacheStats(); st.Size == 0 || st.Invalidations != 0 {
		t.Fatalf("warmup stats: %+v", st)
	}
	reg(table.KindInt) // same schema: reload, keep plans
	if st := c.PlanCacheStats(); st.Size == 0 || st.Invalidations != 0 {
		t.Fatalf("same-schema re-register cleared the cache: %+v", st)
	}
	reg(table.KindString) // kind change: invalidate
	if st := c.PlanCacheStats(); st.Size != 0 || st.Invalidations != 1 {
		t.Fatalf("schema change stats: %+v", st)
	}
	if _, err := queryTable(c, "SELECT a FROM t WHERE a > 0"); err != nil {
		t.Fatal(err)
	}
	if st := c.PlanCacheStats(); st.Size == 0 {
		t.Fatalf("cache did not refill after invalidation: %+v", st)
	}
}

// TestCodedKeyIngestQueryStress: one writer publishes batches into a
// table that starts just short of the coding floor (4,096 rows), so its
// string key s starts keeping codes mid-run, while readers group, take
// DISTINCT and partition by s. s is "even" or "odd" by v, so a grouped
// read's counts and sums have closed forms over any published prefix;
// every read sees one snapshot's codes and dictionary while the writer
// extends both.
func TestCodedKeyIngestQueryStress(t *testing.T) {
	const start, batchN = 4000, 50
	batches := 40 * stressScale()
	parity := []string{"even", "odd"}
	rows := func(lo, n int) [][]table.Value {
		out := make([][]table.Value, n)
		for i := range out {
			v := lo + i
			out[i] = []table.Value{table.Int(int64(v)), table.Str(parity[v%2])}
		}
		return out
	}
	c := NewCatalog()
	c.Register(table.MustNew("coded", []string{"v", "s"}, []table.Kind{table.KindInt, table.KindString}))
	app, _ := c.Appender("coded")
	if err := appendRows(app, rows(0, start)...); err != nil {
		t.Fatal(err)
	}
	if _, err := app.PublishErr(); err != nil {
		t.Fatal(err)
	}

	check := func(q string, each func(b *Batch, r int)) error {
		res, err := c.QueryCtx(context.Background(), q)
		if err != nil {
			return err
		}
		for b := res.Next(); b != nil; b = res.Next() {
			for r := 0; r < b.NumRows(); r++ {
				each(b, r)
			}
		}
		return nil
	}
	reads := []func() error{
		func() error {
			var total, even, odd int64
			var sum float64
			err := check("SELECT s, COUNT(*), SUM(v) FROM coded GROUP BY s", func(b *Batch, r int) {
				n, _ := b.Int64(1, r)
				s, _ := b.Float64(2, r)
				total, sum = total+n, sum+s
				if b.String(0, r) == "even" {
					even = n
				} else {
					odd = n
				}
			})
			if err == nil && (even != (total+1)/2 || odd != total/2 || sum != float64(total)*float64(total-1)/2) {
				err = fmt.Errorf("grouped read of %d rows: even %d, odd %d, sum %v", total, even, odd, sum)
			}
			return err
		},
		func() error {
			var keys []string
			err := check("SELECT DISTINCT s FROM coded WHERE v >= 3", func(b *Batch, r int) {
				keys = append(keys, b.String(0, r))
			})
			if err == nil && fmt.Sprint(keys) != "[odd even]" {
				err = fmt.Errorf("DISTINCT s: %v, want [odd even]", keys)
			}
			return err
		},
		func() error {
			var bad error
			err := check("SELECT v, ROW_NUMBER() OVER (PARTITION BY s ORDER BY v) FROM coded WHERE v >= 1000", func(b *Batch, r int) {
				v, _ := b.Int64(0, r)
				n, _ := b.Int64(1, r)
				if n != (v-1000)/2+1 && bad == nil {
					bad = fmt.Errorf("row %d numbered %d in its partition", v, n)
				}
			})
			if err == nil {
				err = bad
			}
			return err
		},
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, len(reads))
	for _, read := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < batches; i++ {
		if err := appendRows(app, rows(start+i*batchN, batchN)...); err != nil {
			t.Fatal(err)
		}
		if _, err := app.PublishErr(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := app.Snapshot(); !coded(s.Table().Columns[1]) {
		t.Errorf("the key column of %d rows is not coded", s.NumRows())
	}
}
