package table

import (
	"fmt"
	"math/rand"
	"testing"
)

// Property battery for chunked snapshot storage: random append / publish /
// gather sequences are replayed against a flat []Value oracle per column.
// Every published snapshot is kept and re-verified after later appends
// land, so the immutability guarantee is checked continuously, not just at
// publish time.

// oracleTable mirrors an Appender cell-for-cell in boxed values.
type oracleTable struct {
	names []string
	kinds []Kind
	cols  [][]Value
}

// appendRow mirrors Table.AppendRow: NULL or a value of its column's kind
// as is, any other value as its column kind parses its text. A row holding
// a value the kind refuses appends nothing, and appendRow reports false.
func (o *oracleTable) appendRow(vals []Value) bool {
	row := make([]Value, len(vals))
	for i, v := range vals {
		row[i] = v
		if !v.IsNull() && v.Kind != o.kinds[i] {
			p, ok := o.kinds[i].Parse(v.AsString())
			if !ok {
				return false
			}
			row[i] = p
		}
	}
	o.appendExact(row)
	return true
}

// appendText mirrors Appender.AppendText: each cell as its column kind
// parses it, the whole row refused when one cell is.
func (o *oracleTable) appendText(cells []string) bool {
	row := make([]Value, len(cells))
	for i, c := range cells {
		v, ok := o.kinds[i].Parse(c)
		if !ok {
			return false
		}
		row[i] = v
	}
	o.appendExact(row)
	return true
}

// appendExact mirrors Column.Append: every value as given, so a
// foreign-kind value degrades the column to boxed storage.
func (o *oracleTable) appendExact(vals []Value) {
	for i := range o.cols {
		o.cols[i] = append(o.cols[i], vals[i])
	}
}

// randCell produces a value for column kind k. Mostly kind-matched, with
// NULLs mixed in; when allowMixed, occasionally a mismatched kind, which
// AppendRow and AppendText refuse or parse and Column.Append stores boxed.
func randCell(rng *rand.Rand, k Kind, allowMixed bool) Value {
	if rng.Intn(6) == 0 {
		return Null()
	}
	if allowMixed && rng.Intn(12) == 0 {
		if k == KindString {
			return Int(int64(rng.Intn(100)))
		}
		return Str(fmt.Sprintf("mixed-%d", rng.Intn(100)))
	}
	switch k {
	case KindInt:
		return Int(int64(rng.Intn(1000) - 500))
	case KindFloat:
		return Float(float64(rng.Intn(1000)) / 8)
	case KindString:
		return Str(fmt.Sprintf("s%03d", rng.Intn(300)))
	case KindBool:
		return Bool(rng.Intn(2) == 0)
	default:
		return Null()
	}
}

func checkValue(t *testing.T, ctx string, got, want Value) {
	t.Helper()
	if got.Key() != want.Key() {
		t.Fatalf("%s: got %s want %s", ctx, got.Key(), want.Key())
	}
}

// verifySnapshot checks a snapshot cell-for-cell against the oracle prefix
// it was published over, then cross-checks the chunk partition and random
// selection / gather shapes that cross chunk boundaries.
func verifySnapshot(t *testing.T, rng *rand.Rand, s *Snapshot, o *oracleTable, rows int) {
	t.Helper()
	if s.NumRows() != rows {
		t.Fatalf("snapshot v%d: NumRows = %d, want %d", s.Version(), s.NumRows(), rows)
	}
	tbl := s.Table()
	if tbl.NumRows() != rows {
		t.Fatalf("snapshot v%d: Table().NumRows = %d, want %d", s.Version(), tbl.NumRows(), rows)
	}
	// Flat view: every cell.
	for ci := range tbl.Columns {
		for ri := 0; ri < rows; ri++ {
			checkValue(t, fmt.Sprintf("v%d flat col %d row %d", s.Version(), ci, ri),
				tbl.Columns[ci].Value(ri), o.cols[ci][ri])
		}
	}
	// Chunk partition: bounds tile [0, rows) and chunk-local cells match.
	pos := 0
	for i := 0; i < s.NumChunks(); i++ {
		ck := s.Chunk(i)
		lo, hi := ck.lo, ck.hi
		if lo != pos || hi < lo || hi > rows {
			t.Fatalf("v%d chunk %d: bounds [%d,%d) at pos %d rows %d", s.Version(), i, lo, hi, pos, rows)
		}
		pos = hi
		if ck.Column(0).Len() != hi-lo || ck.NumCols() != len(tbl.Columns) {
			t.Fatalf("v%d chunk %d: %d rows %d cols", s.Version(), i, ck.Column(0).Len(), ck.NumCols())
		}
		for ci := 0; ci < ck.NumCols(); ci++ {
			for r := lo; r < hi; r++ {
				checkValue(t, fmt.Sprintf("v%d chunk %d col %d row %d", s.Version(), i, ci, r),
					ck.Column(ci).Value(r-lo), o.cols[ci][r])
			}
		}
	}
	if pos != rows {
		t.Fatalf("v%d: chunks cover %d of %d rows", s.Version(), pos, rows)
	}
	if rows == 0 {
		return
	}
	// Span-form selection crossing chunk boundaries.
	lo := rng.Intn(rows)
	hi := lo + rng.Intn(rows-lo) + 1
	spanSel := NewSpanSelection(Span{Lo: lo, Hi: hi})
	// Dense-form selection: random ascending subset.
	var idx []int
	for r := 0; r < rows; r++ {
		if rng.Intn(3) == 0 {
			idx = append(idx, r)
		}
	}
	denseSel := NewIndexSelection(idx)
	for ci := range tbl.Columns {
		got := tbl.Columns[ci].GatherSel(spanSel)
		for j, r := 0, lo; r < hi; j, r = j+1, r+1 {
			checkValue(t, fmt.Sprintf("v%d span col %d row %d", s.Version(), ci, r), got.Value(j), o.cols[ci][r])
		}
		got = tbl.Columns[ci].GatherSel(denseSel)
		for j, r := range idx {
			checkValue(t, fmt.Sprintf("v%d dense col %d row %d", s.Version(), ci, r), got.Value(j), o.cols[ci][r])
		}
	}
	// Gather with a pad mask (the join materialization primitive) over
	// chunked storage.
	n := rng.Intn(2*rows) + 1
	pidx := make([]int, n)
	pnulls := make([]bool, n)
	for j := range pidx {
		if rng.Intn(5) == 0 {
			pnulls[j] = true
		}
		pidx[j] = rng.Intn(rows)
	}
	for ci := range tbl.Columns {
		got := tbl.Columns[ci].Gather(pidx, pnulls)
		for j := range pidx {
			want := Null()
			if !pnulls[j] {
				want = o.cols[ci][pidx[j]]
			}
			checkValue(t, fmt.Sprintf("v%d pairs col %d pos %d", s.Version(), ci, j), got.Value(j), want)
		}
	}
}

// TestAppenderPropertyVsOracle drives random append/publish/bulk-append
// sequences and verifies every snapshot ever published — including all
// older ones after each new publish — against the flat oracle.
func TestAppenderPropertyVsOracle(t *testing.T) {
	kindsPool := []Kind{KindInt, KindFloat, KindString, KindBool}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			ncols := 2 + rng.Intn(3)
			names := make([]string, ncols)
			kinds := make([]Kind, ncols)
			for i := range names {
				names[i] = fmt.Sprintf("c%d", i)
				kinds[i] = kindsPool[rng.Intn(len(kindsPool))]
			}
			allowMixed := seed%3 == 0 // every third seed exercises degradation

			o := &oracleTable{names: names, kinds: kinds, cols: make([][]Value, ncols)}
			seedTbl := MustNew("prop", names, kinds)
			initial := rng.Intn(20)
			for r := 0; r < initial; r++ {
				vals := make([]Value, ncols)
				for i := range vals {
					vals[i] = randCell(rng, kinds[i], allowMixed)
				}
				err := seedTbl.AppendRow(vals...)
				if accepted := o.appendRow(vals); accepted != (err == nil) {
					t.Fatalf("AppendRow(%v) = %v, oracle accepts: %v", vals, err, accepted)
				}
			}
			initial = seedTbl.NumRows()
			app := NewAppender(seedTbl)

			type published struct {
				snap *Snapshot
				rows int
			}
			history := []published{{app.Snapshot(), initial}}

			rows := initial
			for step := 0; step < 30; step++ {
				switch rng.Intn(4) {
				case 0, 1: // text row appends, the ingest path
					k := rng.Intn(8)
					for b := 0; b < k; b++ {
						cells := make([]string, ncols)
						for i := range cells {
							cells[i] = randCell(rng, kinds[i], allowMixed).AsString()
						}
						err := app.AppendText(cells)
						accepted := o.appendText(cells)
						if accepted != (err == nil) {
							t.Fatalf("AppendText(%q) = %v, oracle accepts: %v", cells, err, accepted)
						}
						if accepted {
							rows++
						}
					}
				case 2: // bulk table append (typed slab fast path + cell-at-a-time slow path)
					src := MustNew("src", names, kinds)
					k := rng.Intn(6)
					for b := 0; b < k; b++ {
						vals := make([]Value, ncols)
						for i := range vals {
							vals[i] = randCell(rng, kinds[i], allowMixed)
							src.Columns[i].Append(vals[i])
						}
						o.appendExact(vals)
					}
					if err := app.AppendTableExact(src); err != nil {
						t.Fatal(err)
					}
					rows += k
				case 3: // publish
					if got := app.Pending(); got != rows-history[len(history)-1].rows {
						t.Fatalf("pending = %d, want %d", got, rows-history[len(history)-1].rows)
					}
					snap, err := app.PublishErr()
					if err != nil {
						t.Fatal(err)
					}
					history = append(history, published{snap, rows})
				}
				// The live snapshot never shows pending rows.
				last := history[len(history)-1]
				if got := app.Snapshot(); got.NumRows() != last.rows || got.Version() != last.snap.Version() {
					t.Fatalf("live snapshot drifted: %d rows v%d, want %d rows v%d",
						got.NumRows(), got.Version(), last.rows, last.snap.Version())
				}
				// Immutability: every snapshot ever published still matches
				// the oracle prefix it was published over.
				for _, p := range history {
					verifySnapshot(t, rng, p.snap, o, p.rows)
				}
			}
			// Publishing with nothing pending returns the same snapshot.
			final, err := app.PublishErr()
			if err != nil {
				t.Fatal(err)
			}
			if again, err := app.PublishErr(); err != nil || again != final {
				t.Fatalf("no-op Publish returned a new snapshot (err %v)", err)
			}
		})
	}
}

// TestAppenderErrors pins the arity error for bulk appends.
func TestAppenderErrors(t *testing.T) {
	app := NewAppender(MustNew("t", []string{"a", "b"}, []Kind{KindInt, KindInt}))
	if err := app.AppendTableExact(MustNew("s", []string{"a"}, []Kind{KindInt})); err == nil {
		t.Fatal("column-count-mismatched bulk append succeeded")
	}
}

// TestSnapshotSchema pins Schema and the version/chunk bookkeeping on the
// registration snapshot of empty and non-empty tables.
func TestSnapshotSchema(t *testing.T) {
	empty := NewAppender(MustNew("e", []string{"x"}, []Kind{KindFloat}))
	s := empty.Snapshot()
	if s.Version() != 1 || s.NumRows() != 0 || s.NumChunks() != 0 {
		t.Fatalf("empty registration snapshot: v%d rows %d chunks %d", s.Version(), s.NumRows(), s.NumChunks())
	}
	tbl := MustNew("t", []string{"a", "b"}, []Kind{KindInt, KindString})
	tbl.MustAppendRow(Int(1), Str("x"))
	app := NewAppender(tbl)
	s = app.Snapshot()
	if s.Version() != 1 || s.NumRows() != 1 || s.NumChunks() != 1 {
		t.Fatalf("registration snapshot: v%d rows %d chunks %d", s.Version(), s.NumRows(), s.NumChunks())
	}
	names, kinds := s.Schema()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" || kinds[0] != KindInt || kinds[1] != KindString {
		t.Fatalf("schema: %v %v", names, kinds)
	}
	if err := app.AppendText([]string{"2", "y"}); err != nil {
		t.Fatal(err)
	}
	if s, err := app.PublishErr(); err != nil || s.Version() != 2 {
		t.Fatalf("publish = v%d, %v; want v2", s.Version(), err)
	}
}
