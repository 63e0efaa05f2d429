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

// oracleTable mirrors an Appender cell-for-cell in Values.
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

// appendExact mirrors Column.Append: every value as given, each NULL or
// of its column's kind.
func (o *oracleTable) appendExact(vals []Value) {
	for i := range o.cols {
		o.cols[i] = append(o.cols[i], vals[i])
	}
}

// randCell produces a value for column kind k. Mostly kind-matched, with
// NULLs mixed in; when allowMixed, occasionally a mismatched kind, which
// AppendRow and AppendText refuse or parse.
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
	if keyOf(got) != keyOf(want) {
		t.Fatalf("%s: got %v want %v", ctx, got, want)
	}
}

// published is a snapshot beside what the test expects of it: its row
// count, and for each column whether it is coded and, if so, its
// dictionary's length.
type published struct {
	snap    *Snapshot
	rows    int
	coded   []bool
	dictLen []int
}

// verifySnapshot checks a snapshot cell-for-cell against the oracle prefix
// it was published over, then cross-checks the chunk partition and random
// selection / gather shapes that cross chunk boundaries. A column is
// coded exactly when p says so, with the dictionary it had at publish;
// its codes agree with its cells, and its views, gathers and copies carry
// them until a Set drops them.
func verifySnapshot(t *testing.T, rng *rand.Rand, p published, o *oracleTable) {
	t.Helper()
	s, rows := p.snap, p.rows
	if s.NumRows() != rows {
		t.Fatalf("snapshot v%d: NumRows = %d, want %d", s.Version(), s.NumRows(), rows)
	}
	tbl := s.Table()
	if tbl.NumRows() != rows {
		t.Fatalf("snapshot v%d: Table().NumRows = %d, want %d", s.Version(), tbl.NumRows(), rows)
	}
	// Flat view: every cell, and the codes.
	for ci := range tbl.Columns {
		for ri := 0; ri < rows; ri++ {
			checkValue(t, fmt.Sprintf("v%d flat col %d row %d", s.Version(), ci, ri),
				tbl.Columns[ci].Value(ri), o.cols[ci][ri])
		}
		what := fmt.Sprintf("v%d flat col %d", s.Version(), ci)
		_, dict, _, coded := tbl.Columns[ci].Codes()
		if coded != p.coded[ci] {
			t.Fatalf("%s: coded %v over %d rows, want %v", what, coded, rows, p.coded[ci])
		}
		if coded {
			if len(dict) != p.dictLen[ci] {
				t.Fatalf("%s: dictionary of %d, published with %d", what, len(dict), p.dictLen[ci])
			}
			checkCodes(t, what, &tbl.Columns[ci], o.cols[ci][:rows])
			checkCodesDropped(t, what, &tbl.Columns[ci])
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
			// A chunk sealed before its column's coding started has no codes.
			if _, _, _, ok := ck.Column(ci).Codes(); ok {
				checkCodes(t, fmt.Sprintf("v%d chunk %d col %d", s.Version(), i, ci), ck.Column(ci), o.cols[ci][lo:hi])
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
	denseWant := make([][]Value, len(tbl.Columns))
	for ci := range tbl.Columns {
		got := tbl.Columns[ci].GatherSel(spanSel)
		for j, r := 0, lo; r < hi; j, r = j+1, r+1 {
			checkValue(t, fmt.Sprintf("v%d span col %d row %d", s.Version(), ci, r), got.Value(j), o.cols[ci][r])
		}
		if p.coded[ci] {
			checkCodes(t, fmt.Sprintf("v%d span col %d", s.Version(), ci), &got, o.cols[ci][lo:hi])
			view := tbl.Columns[ci].View(lo, hi)
			checkCodes(t, fmt.Sprintf("v%d view col %d", s.Version(), ci), &view, o.cols[ci][lo:hi])
		}
		got = tbl.Columns[ci].GatherSel(denseSel)
		for j, r := range idx {
			checkValue(t, fmt.Sprintf("v%d dense col %d row %d", s.Version(), ci, r), got.Value(j), o.cols[ci][r])
			denseWant[ci] = append(denseWant[ci], o.cols[ci][r])
		}
		if p.coded[ci] {
			checkCodes(t, fmt.Sprintf("v%d dense col %d", s.Version(), ci), &got, denseWant[ci])
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
		want := make([]Value, len(pidx))
		for j := range pidx {
			if !pnulls[j] {
				want[j] = o.cols[ci][pidx[j]]
			}
			checkValue(t, fmt.Sprintf("v%d pairs col %d pos %d", s.Version(), ci, j), got.Value(j), want[j])
		}
		if p.coded[ci] {
			checkCodes(t, fmt.Sprintf("v%d pairs col %d", s.Version(), ci), &got, want)
		}
	}
}

// checkCodes fails unless col is coded and its codes are its cells,
// want: each non-NULL cell is its code's dictionary entry, a NULL cell
// has code 0, and the NULL mask is want's.
func checkCodes(t *testing.T, what string, col *Column, want []Value) {
	t.Helper()
	codes, dict, nulls, ok := col.Codes()
	if !ok || len(codes) != len(want) || len(nulls) != len(want) {
		t.Fatalf("%s: Codes() = %d codes, %d nulls, ok %v; want %d cells coded", what, len(codes), len(nulls), ok, len(want))
	}
	for i, v := range want {
		switch {
		case nulls[i] != v.IsNull():
			t.Fatalf("%s: cell %d null %v, want %v", what, i, nulls[i], v)
		case nulls[i] && codes[i] != 0:
			t.Fatalf("%s: NULL cell %d has code %d", what, i, codes[i])
		case !nulls[i] && dict[codes[i]] != v.S:
			t.Fatalf("%s: cell %d has code %d = %q, want %q", what, i, codes[i], dict[codes[i]], v.S)
		}
	}
}

// checkCodesDropped fails unless a Set drops a coded column's codes, and a
// copy keeps them until then.
func checkCodesDropped(t *testing.T, what string, col *Column) {
	t.Helper()
	set := col.CloneData()
	if _, _, _, ok := set.Codes(); !ok {
		t.Fatalf("%s: the copy of a coded column has no codes", what)
	}
	set.Set(0, set.Value(0))
	if _, _, _, ok := set.Codes(); ok {
		t.Fatalf("%s: Set kept the codes", what)
	}
}

// codeModel is the coding rule spelled out over the oracle: after a
// publish of rows rows, a typed string column is coded once the table
// holds codeMinRows rows, until its dictionary — the distinct non-NULL
// strings so far — holds more than codeMaxDict entries and more than half
// the rows, and never again after.
type codeModel struct {
	stopped []bool
}

// publish returns what a snapshot of rows rows, just published, should
// show of each column's codes.
func (m *codeModel) publish(o *oracleTable, s *Snapshot, rows int) published {
	p := published{snap: s, rows: rows, coded: make([]bool, len(o.cols)), dictLen: make([]int, len(o.cols))}
	for ci, col := range o.cols {
		if m.stopped[ci] || o.kinds[ci] != KindString {
			continue
		}
		if rows < codeMinRows {
			continue
		}
		distinct := map[string]bool{}
		for _, v := range col[:rows] {
			if !v.IsNull() {
				distinct[v.S] = true
			}
		}
		if len(distinct) > codeMaxDict && 2*len(distinct) > rows {
			m.stopped[ci] = true
			continue
		}
		p.coded[ci], p.dictLen[ci] = true, len(distinct)
	}
	return p
}

// TestAppenderPropertyVsOracle drives random append/publish/bulk-append
// sequences and verifies every snapshot ever published — including all
// older ones after each new publish — against the flat oracle. The small
// runs stay below codeMinRows; the large ones append hundreds of rows a
// step, with a low- and a high-cardinality string column, so their string
// columns start coding at a publish past codeMinRows (the rows published
// before coded then) and the high-cardinality one stops past codeMaxDict.
func TestAppenderPropertyVsOracle(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			appenderProperty(t, seed, seed >= 12)
		})
	}
}

func appenderProperty(t *testing.T, seed int64, large bool) {
	kindsPool := []Kind{KindInt, KindFloat, KindString, KindBool}
	rng := rand.New(rand.NewSource(seed))
	ncols := 2 + rng.Intn(3)
	names := make([]string, ncols)
	kinds := make([]Kind, ncols)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
		kinds[i] = kindsPool[rng.Intn(len(kindsPool))]
	}
	allowMixed := seed%3 == 0 // every third seed offers foreign-kind values
	batch, unique := 8, 0     // unique numbers column 1's strings when large
	if large {
		kinds[0], kinds[1] = KindString, KindString
		batch = 1200
	}
	rows := 0
	// cell draws column i's next value; a foreign kind only when mixed,
	// for the paths that parse or refuse it.
	cell := func(i int, mixed bool) Value {
		v := randCell(rng, kinds[i], mixed)
		if large && v.Kind == KindString {
			if i == 1 {
				unique++
				return Str(fmt.Sprintf("u%d", unique))
			}
			// na-east and na-west share a length and first and last
			// bytes, so the coder's fingerprint slots collide on them.
			return Str([]string{"na-east", "na-west", "apac", "", "k4"}[rng.Intn(5)])
		}
		return v
	}

	o := &oracleTable{names: names, kinds: kinds, cols: make([][]Value, ncols)}
	seedTbl := MustNew("prop", names, kinds)
	initial := rng.Intn(20)
	for r := 0; r < initial; r++ {
		vals := make([]Value, ncols)
		for i := range vals {
			vals[i] = cell(i, allowMixed)
		}
		err := seedTbl.AppendRow(vals...)
		if accepted := o.appendRow(vals); accepted != (err == nil) {
			t.Fatalf("AppendRow(%v) = %v, oracle accepts: %v", vals, err, accepted)
		}
	}
	initial = seedTbl.NumRows()
	app := NewAppender(seedTbl)
	model := &codeModel{stopped: make([]bool, ncols)}
	history := []published{model.publish(o, app.Snapshot(), initial)}

	rows = initial
	for step := 0; step < 30; step++ {
		op := rng.Intn(4)
		switch op {
		case 0, 1: // text row appends, the ingest path
			k := rng.Intn(batch)
			for b := 0; b < k; b++ {
				cells := make([]string, ncols)
				for i := range cells {
					cells[i] = cell(i, allowMixed).AsString()
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
		case 2: // bulk table append, slab-at-a-time
			src := MustNew("src", names, kinds)
			k := rng.Intn(batch * 3 / 4)
			for b := 0; b < k; b++ {
				vals := make([]Value, ncols)
				for i := range vals {
					vals[i] = cell(i, false)
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
			if rows > history[len(history)-1].rows {
				history = append(history, model.publish(o, snap, rows))
			}
		}
		// The live snapshot never shows pending rows.
		last := history[len(history)-1]
		if got := app.Snapshot(); got.NumRows() != last.rows || got.Version() != last.snap.Version() {
			t.Fatalf("live snapshot drifted: %d rows v%d, want %d rows v%d",
				got.NumRows(), got.Version(), last.rows, last.snap.Version())
		}
		// Immutability: every snapshot ever published still matches
		// the oracle prefix it was published over. The large runs check
		// after each publish only, once the appends before it landed.
		if !large || op == 3 {
			for _, p := range history {
				verifySnapshot(t, rng, p, o)
			}
		}
	}
	if large && (!history[len(history)-1].coded[0] || !model.stopped[1]) {
		t.Errorf("%d rows: the low-cardinality column coded %v, the unique one stopped %v; want true, true",
			rows, history[len(history)-1].coded[0], model.stopped[1])
	}
	// Publishing with nothing pending returns the same snapshot.
	final, err := app.PublishErr()
	if err != nil {
		t.Fatal(err)
	}
	if again, err := app.PublishErr(); err != nil || again != final {
		t.Fatalf("no-op Publish returned a new snapshot (err %v)", err)
	}
}

// TestCodingRuleBoundaries pins the coding rule at its edges: coding
// starts at the publish that reaches codeMinRows rows and codes the rows
// published before; a dictionary of codeMaxDict entries is kept, and one
// more stops coding when it also holds more than half the rows — not at
// exactly half — and for good.
func TestCodingRuleBoundaries(t *testing.T) {
	publish := func(rows []string) *Appender {
		tbl := MustNew("t", []string{"s"}, []Kind{KindString})
		for _, r := range rows {
			tbl.MustAppendRow(Str(r))
		}
		return NewAppender(tbl)
	}
	coded := func(app *Appender) bool {
		_, _, _, ok := app.Snapshot().Table().Columns[0].Codes()
		return ok
	}
	appendRows := func(app *Appender, rows ...string) {
		for _, r := range rows {
			if err := app.AppendText([]string{r}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := app.PublishErr(); err != nil {
			t.Fatal(err)
		}
	}
	words := func(n int, word func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = word(i)
		}
		return out
	}
	few := func(i int) string { return fmt.Sprintf("k%d", i%3) }
	unique := func(i int) string { return fmt.Sprintf("u%d", i) }

	app := publish(words(codeMinRows-1, few))
	if coded(app) {
		t.Fatalf("coded at %d rows", codeMinRows-1)
	}
	appendRows(app, "k1")
	if !coded(app) {
		t.Fatalf("not coded at %d rows", codeMinRows)
	}
	want := make([]Value, codeMinRows)
	for i := range want {
		want[i] = Str(few(i))
	}
	want[codeMinRows-1] = Str("k1")
	checkCodes(t, "at the floor", &app.Snapshot().Table().Columns[0], want)

	app = publish(words(codeMaxDict, unique))
	if !coded(app) {
		t.Fatalf("a dictionary of %d entries over as many rows is not coded", codeMaxDict)
	}
	appendRows(app, "one more")
	if coded(app) {
		t.Fatalf("a dictionary of %d entries over as many rows is coded", codeMaxDict+1)
	}
	appendRows(app, words(4*codeMaxDict, few)...)
	if coded(app) {
		t.Fatal("coding started again after it stopped")
	}

	half := words(2*(codeMaxDict+1), func(i int) string { return unique(i / 2) })
	if app := publish(half); !coded(app) {
		t.Fatalf("%d entries over %d rows, exactly half, is not coded", codeMaxDict+1, len(half))
	}
	if app := publish(half[1:]); coded(app) {
		t.Fatalf("%d entries over %d rows, more than half, is coded", codeMaxDict+1, len(half)-1)
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
