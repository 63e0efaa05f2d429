package table

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// stressScale reads DATALAB_STRESS_SCALE (default 1): CI's ingest and
// snapshot stress step runs the zone property test over that many times
// the seeds.
func stressScale() int {
	if s := os.Getenv("DATALAB_STRESS_SCALE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// zoneShapes are the columns the zone property test builds: cell i of
// rows n, drawn from rng.
var zoneShapes = []struct {
	name string
	kind Kind
	cell func(rng *rand.Rand, i, n int) Value
}{
	{"random", KindInt, func(rng *rand.Rand, i, n int) Value { return Int(rng.Int63n(2000) - 1000) }},
	{"ascending", KindInt, func(rng *rand.Rand, i, n int) Value { return Int(int64(3*i + rng.Intn(3))) }},
	{"descending", KindInt, func(rng *rand.Rand, i, n int) Value { return Int(int64(n - i)) }},
	{"extremes", KindInt, func(rng *rand.Rand, i, n int) Value {
		return Int([]int64{math.MinInt64, math.MaxInt64, 0, int64(i)}[rng.Intn(4)])
	}},
	{"scatteredNulls", KindInt, func(rng *rand.Rand, i, n int) Value {
		if rng.Intn(300) == 0 {
			return Null()
		}
		return Int(int64(i))
	}},
	{"nullBlock", KindInt, func(rng *rand.Rand, i, n int) Value {
		if i/zoneRows == 1 {
			return Null()
		}
		return Int(int64(i))
	}},
	{"time", KindTime, func(rng *rand.Rand, i, n int) Value {
		if rng.Intn(500) == 0 {
			return Null()
		}
		return Value{Kind: KindTime, I: 1_700_000_000_000_000_000 + int64(i)*1_000_000_000}
	}},
}

// zoneEdges are the row counts the property test publishes at: at, one
// before and one after each block edge, and mid-block.
func zoneEdges(blocks int) []int {
	var at []int
	for b := 1; b <= blocks; b++ {
		at = append(at, b*zoneRows-1, b*zoneRows, b*zoneRows+1, b*zoneRows+zoneRows/2)
	}
	return at
}

// TestZonedSelectCompareMatchesUnzoned builds each zoneShapes column through
// an Appender, publishing at and around block edges and holding every
// snapshot across the later publishes, then checks every snapshot: its
// zones describe its full blocks, and SelectCompare over span inputs that
// start and end mid-block, for random intervals (empty ones and
// MinInt64/MaxInt64 ends included), returns what the same call on
// CloneData, which has no zones, returns — the same rows, representation
// and sawNull. A time column, which SelectCompare does not cover, gets no
// zones.
func TestZonedSelectCompareMatchesUnzoned(t *testing.T) {
	for _, sh := range zoneShapes {
		for seed := range int64(2 * stressScale()) {
			t.Run(fmt.Sprintf("%s/seed%d", sh.name, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				const blocks = 4
				edges := zoneEdges(blocks)
				n := edges[len(edges)-1] + rng.Intn(zoneRows)
				app := NewAppender(MustNew("z", []string{"v"}, []Kind{sh.kind}))
				var snaps []*Snapshot
				for rows := 0; rows < n; {
					next := n
					if len(edges) > 0 {
						next, edges = edges[0], edges[1:]
					}
					batch := MustNew("z", []string{"v"}, []Kind{sh.kind})
					for ; rows < next; rows++ {
						batch.MustAppendRow(sh.cell(rng, rows, n))
					}
					if err := app.AppendTableExact(batch); err != nil {
						t.Fatal(err)
					}
					s, err := app.PublishErr()
					if err != nil {
						t.Fatal(err)
					}
					snaps = append(snaps, s)
				}
				for _, s := range snaps {
					checkZonedSnapshot(t, rng, s)
				}
			})
		}
	}
}

// checkZonedSnapshot is TestZonedSelectCompareMatchesUnzoned's check of one
// snapshot.
func checkZonedSnapshot(t *testing.T, rng *rand.Rand, s *Snapshot) {
	t.Helper()
	col := &s.Table().Columns[0]
	n := col.Len()
	if col.Kind == KindTime {
		if col.zones != nil {
			t.Fatalf("%d rows: a time column has zones", n)
		}
		return
	}
	zones := col.zoneBlocks()
	if len(zones) != n/zoneRows || (n < zoneRows) != (col.zones == nil) {
		t.Fatalf("%d rows: %d zones (map %v), want one per full block", n, len(zones), col.zones != nil)
	}
	for b, zn := range zones {
		lo, hi := b*zoneRows, (b+1)*zoneRows
		if want := zoneOf(col.ints[lo:hi], col.nulls[lo:hi]); zn != want {
			t.Fatalf("%d rows: block %d zone %+v, its cells say %+v", n, b, zn, want)
		}
	}
	plain := col.CloneData()
	if plain.zones != nil {
		t.Fatal("CloneData kept the zones")
	}
	var cells []int64
	for i := 0; i < n; i++ {
		if !col.nulls[i] {
			cells = append(cells, col.ints[i])
		}
	}
	pick := func() int64 {
		switch r := rng.Intn(8); {
		case r == 0:
			return math.MinInt64
		case r == 1:
			return math.MaxInt64
		case len(cells) > 0:
			return cells[rng.Intn(len(cells))] + int64(rng.Intn(3)-1)
		}
		return 0
	}
	for range 40 {
		a, z := pick(), pick()
		if rng.Intn(4) != 0 && a > z {
			a, z = z, a // mostly non-empty, sometimes empty
		}
		var run []Cmp
		switch rng.Intn(4) {
		case 0:
			run = []Cmp{{CmpGe, Int(a)}, {CmpLe, Int(z)}}
		case 1:
			run = []Cmp{{CmpGt, Int(a)}, {CmpLt, Int(z)}}
		case 2:
			run = []Cmp{{CmpGe, Int(a)}}
		default:
			run = []Cmp{{CmpLt, Int(z)}}
		}
		for _, in := range zoneInputs(rng, n) {
			got, gotNull := col.SelectCompare(run, in)
			want, wantNull := plain.SelectCompare(run, in)
			checkInvariants(t, got)
			if !reflect.DeepEqual(got, want) || gotNull != wantNull {
				t.Fatalf("%d rows, run %v over %v: zoned %v (NULL %v), unzoned %v (NULL %v)",
					n, run, in.spans, got, gotNull, want, wantNull)
			}
		}
	}
}

// zoneInputs returns span inputs over [0, n): all of it, one span and two
// spans with random ends (mostly mid-block), and the empty input.
func zoneInputs(rng *rand.Rand, n int) []*Selection {
	ends := []int{rng.Intn(n + 1), rng.Intn(n + 1), rng.Intn(n + 1), rng.Intn(n + 1)}
	slices.Sort(ends)
	return []*Selection{
		NewSpanSelection(Span{0, n}),
		NewSpanSelection(Span{ends[0], ends[3]}),
		NewSpanSelection(Span{ends[0], ends[1]}, Span{ends[2], ends[3]}),
		NewSpanSelection(),
	}
}

// TestZonesTravelOnlyWithPrefixViews: a snapshot's prefix views share its
// zone map without allocating, and every column that could differ from the
// published cells — a view not at row 0, a gather, a copy, a Set cell, an
// Appender's adopted arena — carries none of it; a table under one block
// gets no map.
func TestZonesTravelOnlyWithPrefixViews(t *testing.T) {
	tb := MustNew("z", []string{"v", "s"}, []Kind{KindInt, KindString})
	for i := range zoneRows - 1 {
		tb.MustAppendRow(Int(int64(i)), Str("x"))
	}
	app := NewAppender(tb)
	if zs := app.Snapshot().Table().Columns[0].zones; zs != nil {
		t.Fatalf("a table under one block has zones %v", zs)
	}
	more := MustNew("z", []string{"v", "s"}, []Kind{KindInt, KindString})
	for i := range 2 * zoneRows {
		more.MustAppendRow(Int(int64(i)), Str("y"))
	}
	if err := app.AppendTableExact(more); err != nil {
		t.Fatal(err)
	}
	s, _ := app.PublishErr()
	col := s.Table().Columns[0]
	if len(col.zoneBlocks()) != 2 || s.Table().Columns[1].zones != nil {
		t.Fatalf("zones %v on the int column, %v on the string column; want two blocks and none", col.zones, s.Table().Columns[1].zones)
	}
	n := col.Len()
	if v := col.View(0, zoneRows+5); v.zones != col.zones {
		t.Error("a prefix view does not share the zones")
	} else if got := len(v.zoneBlocks()); got != 1 {
		t.Errorf("a %d-row prefix view reads %d zones, want 1", zoneRows+5, got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = col.View(0, n) }); allocs != 0 {
		t.Errorf("View(0, n) allocates %v objects", allocs)
	}
	sel := NewSpanSelection(Span{0, n})
	for what, c := range map[string]Column{
		"View(1, n)": col.View(1, n),
		"Gather":     col.Gather([]int{0, 1, 2}, nil),
		"GatherSel":  col.GatherSel(sel),
		"CloneData":  col.CloneData(),
	} {
		if c.zones != nil {
			t.Errorf("%s kept the zones", what)
		}
	}
	set := col.CloneData()
	set.zones = col.zones
	set.Set(0, Int(-1))
	if set.zones != nil {
		t.Error("Set kept the zones")
	}
	again := NewAppender(s.Table())
	if z := again.Snapshot().Table().Columns[0].zones; z == col.zones || z == nil {
		t.Errorf("NewAppender over a zoned table: zones %p, input's %p; want a map of its own", z, col.zones)
	}
}
