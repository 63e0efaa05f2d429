package sqlengine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"datalab/internal/table"
)

// registerTimeTables adds stamps(id, ts, k) and events(eid, ets) to c.
// stamps.ts holds NULLs, instants before 1970, instants a fraction of a
// second apart and repeated instants; events.ets shares some of them, so a
// join on the two keys matches, fans out and misses.
func registerTimeTables(c *Catalog) {
	at := func(y int, mo time.Month, d, h, mi, s, ns int) table.Value {
		return table.Time(time.Date(y, mo, d, h, mi, s, ns, time.UTC))
	}
	ts := []table.Value{
		at(2024, 1, 1, 0, 0, 0, 250_000_000),
		table.Null(),
		at(1950, 6, 15, 12, 0, 0, 500_000_000),
		at(2024, 1, 1, 0, 0, 0, 750_000_000),
		at(1969, 12, 31, 23, 59, 59, 999_999_999),
		at(2024, 1, 1, 0, 0, 0, 250_000_000),
		at(1970, 1, 1, 0, 0, 0, 0),
		table.Null(),
		at(2023, 12, 31, 23, 59, 59, 0),
		at(2024, 2, 29, 8, 0, 0, 123_456_789),
		at(1950, 6, 15, 12, 0, 0, 500_000_000),
		at(2024, 1, 1, 0, 0, 0, 0),
	}
	stamps := table.MustNew("stamps", []string{"id", "ts", "k"},
		[]table.Kind{table.KindInt, table.KindTime, table.KindInt})
	for i, v := range ts {
		stamps.MustAppendRow(table.Int(int64(i)), v, table.Int(int64(i%3)))
	}
	ets := []table.Value{ts[0], ts[2], table.Null(), ts[9], at(2000, 1, 1, 0, 0, 0, 0), ts[0], ts[3]}
	events := table.MustNew("events", []string{"eid", "ets"}, []table.Kind{table.KindInt, table.KindTime})
	for i, v := range ets {
		events.MustAppendRow(table.Int(int64(100+i)), v)
	}
	c.Register(stamps)
	c.Register(events)
}

// timeStatements cover a time column in every clause: compared with
// string literals (each read as its instant, or refused) under each
// operator and BETWEEN, in the kernel's shape and the general one; as an ORDER BY, GROUP
// BY, DISTINCT, COUNT(DISTINCT), MIN/MAX and YEAR/MONTH/DAY argument; as
// a join key and a PARTITION BY key; and against another time column.
func timeStatements() []string {
	var out []string
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, lit := range []string{"'2024-01-01 00:00:00'", "'1969-12-31'", "'2024-01-01'"} {
			out = append(out,
				"SELECT id FROM stamps WHERE ts "+op+" "+lit+" ORDER BY id",
				"SELECT id FROM stamps WHERE "+lit+" "+op+" ts OR id < 0 ORDER BY id")
		}
	}
	return append(out,
		"SELECT id FROM stamps WHERE ts BETWEEN '1950-06-15 12:00:00' AND '2024-01-01 00:00:00' ORDER BY id",
		"SELECT id FROM stamps WHERE ts NOT BETWEEN '1969' AND '2024-01-01' ORDER BY id",
		"SELECT id, ts FROM stamps ORDER BY ts, id",
		"SELECT id, ts FROM stamps ORDER BY ts DESC, id",
		"SELECT id, ts FROM stamps ORDER BY ts DESC, id LIMIT 4",
		"SELECT ts, COUNT(*) FROM stamps GROUP BY ts ORDER BY ts",
		"SELECT ts, k, COUNT(*) FROM stamps GROUP BY ts, k ORDER BY ts, k",
		"SELECT DISTINCT ts FROM stamps ORDER BY ts",
		"SELECT COUNT(DISTINCT ts), COUNT(ts), COUNT(*) FROM stamps",
		"SELECT k, COUNT(DISTINCT ts) FROM stamps GROUP BY k ORDER BY k",
		"SELECT MIN(ts), MAX(ts) FROM stamps",
		"SELECT k, MIN(ts), MAX(ts) FROM stamps GROUP BY k ORDER BY k",
		"SELECT id, YEAR(ts), MONTH(ts), DAY(ts) FROM stamps ORDER BY id",
		"SELECT YEAR(ts), COUNT(*) FROM stamps GROUP BY YEAR(ts) ORDER BY YEAR(ts)",
		"SELECT s.id, e.eid FROM stamps s JOIN events e ON s.ts = e.ets ORDER BY s.id, e.eid",
		"SELECT s.id, e.eid, s.ts < e.ets, s.ts >= e.ets FROM stamps s JOIN events e ON s.k = e.eid - 100 ORDER BY s.id, e.eid",
		"SELECT s.id, e.eid FROM stamps s LEFT JOIN events e ON s.ts = e.ets ORDER BY s.id, e.eid",
		"SELECT e.eid, COUNT(s.id) FROM events e LEFT JOIN stamps s ON e.ets = s.ts GROUP BY e.eid ORDER BY e.eid",
		"SELECT id, ROW_NUMBER() OVER (PARTITION BY ts ORDER BY id) FROM stamps ORDER BY id",
		"SELECT id, COUNT(*) OVER (PARTITION BY ts) FROM stamps ORDER BY id",
		"SELECT id, RANK() OVER (ORDER BY ts DESC) FROM stamps ORDER BY id",
	)
}

// renderTable writes a result's column names and kinds, then each cell: a
// time as its UTC instant to the nanosecond, any other value as
// Value.String.
func renderTable(sb *strings.Builder, t *table.Table) {
	for _, c := range t.Columns {
		sb.WriteString(c.Name + ":" + c.Kind.String() + "|")
	}
	sb.WriteByte('\n')
	for i, n := 0, t.NumRows(); i < n; i++ {
		for j := range t.Columns {
			v := t.Columns[j].Value(i)
			if v.Kind == table.KindTime {
				sb.WriteString(v.Time().Format(time.RFC3339Nano))
			} else {
				sb.WriteString(v.String())
			}
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
}

// TestTimeCorpus runs timeStatements through every executor diffOneQuery
// compares (vectorized, forced-dense, the scalar oracle, bound and frozen),
// then pins a digest of their rendered results and kinds, or of the error
// a statement raises. The digest last moved when a string compared with a
// time came to be read as its instant: 17 answers changed and one
// statement, whose bound '1969' names no instant, came to raise.
func TestTimeCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randCatalog(rng, 40)
	registerTimeTables(c)
	var sb strings.Builder
	for _, q := range timeStatements() {
		diffOneQuery(t, rng, c, q, "")
		res, err := queryTable(c, q)
		sb.WriteString(q + "\n")
		if err != nil {
			sb.WriteString("error: " + err.Error() + "\n")
			continue
		}
		renderTable(&sb, res)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	const want = "cd7f80f1fd99ec32b87c105b8bca94bb61a86e0759ad91b8eb6653aad6c12b73"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("time corpus digest %s, want %s\n%s", got, want, sb.String())
	}
}

// TestBindTimeRange: a bound time.Time is its UTC instant, whatever its
// zone, and one with no int64 nanosecond count is refused before the
// statement runs, at either end of the range.
func TestBindTimeRange(t *testing.T) {
	c := NewCatalog()
	registerTimeTables(c)
	ctx := context.Background()
	stmt, err := c.Prepare("SELECT ?, id FROM stamps WHERE ts = ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	zoned := time.Date(2024, 2, 29, 10, 0, 0, 123_456_789, time.FixedZone("+02", 2*3600))
	res, err := stmt.Exec(ctx, zoned, zoned)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Strings(), [][]string{{"2024-02-29 08:00:00.123456789", "9"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("zoned bind: got %q, want %q", got, want)
	}
	lo, hi := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	for _, at := range []time.Time{lo, hi} {
		if _, err := stmt.Exec(ctx, at, at); err != nil {
			t.Fatalf("bind %s: %v", at, err)
		}
	}
	for _, at := range []time.Time{lo.Add(-1), hi.Add(1), time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC), {}} {
		if _, err := stmt.Exec(ctx, at, at); err == nil || !strings.Contains(err.Error(), "outside the range a time cell holds") {
			t.Fatalf("bind %s: err %v, want it refused", at, err)
		}
	}
}

// registerDays adds days(id, stat_dt, txt) to c: stat_dt holds three
// midnights, an instant half a second past one of them and a NULL; txt
// holds text equal to, after and before stat_dt by instant, in other
// spellings.
func registerDays(c *Catalog) {
	days := table.MustNew("days", []string{"id", "stat_dt", "txt"},
		[]table.Kind{table.KindInt, table.KindTime, table.KindString})
	for i, r := range [][2]string{
		{"2024-01-01", "2024-01-01"},
		{"2024-06-30", "2024-06-30 00:00:00.5"},
		{"2024-12-31", "2024-12-30"},
		{"2024-06-30 00:00:00.5", "2024-06-30T00:00:00.500Z"},
		{"", "2024-01-01"},
	} {
		ts, _ := table.KindTime.Parse(r[0])
		days.MustAppendRow(table.Int(int64(i)), ts, table.Str(r[1]))
	}
	c.Register(days)
}

// TestTimeComparedWithString: a string compared with a time is the instant
// it names, under every operator, BETWEEN and IN, on either side, and
// whether it comes as a literal, a bound string or a scalar subquery; a
// text column compared with a time column reads each cell so. The scalar
// oracle agrees on every statement.
func TestTimeComparedWithString(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		where string
		args  []string
		want  []int64
	}{
		{"stat_dt = ?", []string{"2024-12-31"}, []int64{2}},
		{"? = stat_dt", []string{"2024-06-30 00:00:00.500"}, []int64{3}},
		{"stat_dt <> ?", []string{"2024-06-30"}, []int64{0, 2, 3}},
		{"stat_dt < ?", []string{"2024-06-30"}, []int64{0}},
		{"? > stat_dt", []string{"2024-06-30"}, []int64{0}},
		{"stat_dt <= ?", []string{"2024-06-30"}, []int64{0, 1}},
		{"stat_dt > ?", []string{"2024-06-30"}, []int64{2, 3}},
		{"? <= stat_dt", []string{"2024-06-30T00:00:00.1Z"}, []int64{2, 3}},
		{"stat_dt >= ?", []string{"20240630"}, []int64{1, 2, 3}},
		{"stat_dt BETWEEN ? AND ?", []string{"2024-01-01", "2024-12-31"}, []int64{0, 1, 2, 3}},
		{"stat_dt NOT BETWEEN ? AND ?", []string{"2024-01-02", "2024-06-30"}, []int64{0, 2, 3}},
		{"? BETWEEN stat_dt AND stat_dt", []string{"2024-06-30"}, []int64{1}},
		{"stat_dt IN (?, ?)", []string{"2024-12-31", "2024-01-01"}, []int64{0, 2}},
		{"stat_dt NOT IN (?, ?)", []string{"2024-12-31", "2024-01-01"}, []int64{1, 3}},
		{"? IN (stat_dt, id)", []string{"2024-06-30"}, []int64{1}},
		{"txt = stat_dt", nil, []int64{0, 3}},
		{"stat_dt < txt", nil, []int64{1}},
		{"txt < stat_dt", nil, []int64{2}},
		{"stat_dt BETWEEN txt AND txt", nil, []int64{0, 3}},
		{"txt IN (stat_dt)", nil, []int64{0, 3}},
	} {
		c := NewCatalog()
		registerDays(c)
		bounds := table.MustNew("bounds", []string{"k", "at"}, []table.Kind{table.KindInt, table.KindString})
		literal, subquery, args := tc.where, tc.where, make([]any, len(tc.args))
		for i, a := range tc.args {
			bounds.MustAppendRow(table.Int(int64(i)), table.Str(a))
			literal = strings.Replace(literal, "?", "'"+a+"'", 1)
			subquery = strings.Replace(subquery, "?", fmt.Sprintf("(SELECT at FROM bounds WHERE k = %d)", i), 1)
			args[i] = a
		}
		c.Register(bounds)
		const head, tail = "SELECT id FROM days WHERE ", " ORDER BY id"
		check := func(form string, res *Result, err error) {
			t.Helper()
			if err != nil {
				t.Errorf("%s (%s): %v", tc.where, form, err)
				return
			}
			var got []int64
			for _, row := range res.Table("").Columns[0].Values() {
				got = append(got, row.I)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s (%s %q): ids %v, want %v", tc.where, form, tc.args, got, tc.want)
			}
		}
		res, err := c.QueryCtx(ctx, head+literal+tail)
		check("literal", res, err)
		res, err = c.QueryCtx(ctx, head+subquery+tail)
		check("scalar subquery", res, err)
		if stmt, err := c.Prepare(head + tc.where + tail); err != nil {
			t.Fatal(err)
		} else {
			res, err = stmt.Exec(ctx, args...)
			check("bound string", res, err)
		}
		for _, q := range []string{head + literal + tail, head + subquery + tail} {
			want, err := queryTable(c, q)
			got, oerr := c.QueryScalar(q)
			if err != nil || oerr != nil || dumpTable(got) != dumpTable(want) {
				t.Errorf("%s: the scalar oracle answers %v (%v)", q, got, oerr)
			}
		}
	}
}

// TestTimeComparedWithNonTimeRaises: a string that names no instant — a
// bare year, blank text, a word — compared with a time raises, naming the
// text, whatever shape and form the comparison takes; the scalar oracle
// raises alike.
func TestTimeComparedWithNonTimeRaises(t *testing.T) {
	ctx := context.Background()
	c := NewCatalog()
	registerDays(c)
	for _, text := range []string{"1969", "", "garbage"} {
		for _, where := range []string{
			"stat_dt = ?", "? < stat_dt", "stat_dt BETWEEN ? AND '2024-12-31'",
			"stat_dt NOT BETWEEN '2024-01-01' AND ?", "stat_dt IN ('2024-01-01', ?)", "stat_dt NOT IN (?)",
		} {
			q := "SELECT id FROM days WHERE " + where
			want := fmt.Sprintf("sql: %q is not a time", text)
			stmt, err := c.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			_, bound := stmt.Exec(ctx, text)
			literal := strings.Replace(q, "?", "'"+text+"'", 1)
			_, inline := c.QueryCtx(ctx, literal)
			_, oracle := c.QueryScalar(literal)
			for form, err := range map[string]error{"bound": bound, "literal": inline, "oracle": oracle} {
				if err == nil || err.Error() != want {
					t.Errorf("%s with %q (%s): err %v, want %s", where, text, form, err, want)
				}
			}
		}
	}
}

// TestTimeComparisonAllocatesPerExecution: the string constants of a time
// comparison become instants once per execution, so a projection of one
// allocates no more over 16,384 rows than over 1,024 (a projection, since a
// filter over more rows splits into more chunks). Read row by row, each
// string would allocate on every row.
func TestTimeComparisonAllocatesPerExecution(t *testing.T) {
	ctx := context.Background()
	allocs := func(rows int, q string, args ...any) float64 {
		c := NewCatalog()
		tb := table.MustNew("big", []string{"ts"}, []table.Kind{table.KindTime})
		start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < rows; i++ {
			tb.MustAppendRow(table.Time(start.Add(time.Duration(i) * time.Hour)))
		}
		c.Register(tb)
		stmt, err := c.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := stmt.Exec(ctx, args...); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		q    string
		args []any
	}{
		{"SELECT ts BETWEEN ? AND ? FROM big", []any{"2024-01-02", "2024-02-01 12:00:00"}},
		{"SELECT ts = ? FROM big", []any{"2024-01-03"}},
		{"SELECT ts IN (?, ?) FROM big", []any{"2024-01-03", "2024-01-05 06:00:00"}},
	} {
		small, large := allocs(1024, tc.q, tc.args...), allocs(16384, tc.q, tc.args...)
		if large > small {
			t.Errorf("%s: %.0f allocations over 16,384 rows, %.0f over 1,024", tc.q, large, small)
		}
	}
}

// TestNullIfComparesAsEquals: NULLIF(a, b) is CASE WHEN a = b THEN NULL
// ELSE a END, so it takes the comparison's rule: a date-only string
// nulls the midnight instant, a text column is read cell by cell, and
// text that names no instant raises as a = b raises. The scalar oracle
// agrees.
func TestNullIfComparesAsEquals(t *testing.T) {
	ctx := context.Background()
	c := NewCatalog()
	registerDays(c)
	for _, tc := range []struct {
		expr string
		want []int64 // the ids whose NULLIF is NULL
	}{
		{"NULLIF(stat_dt, '2024-01-01')", []int64{0, 4}},
		{"NULLIF(stat_dt, '2024-06-30 00:00:00.500')", []int64{3, 4}},
		{"NULLIF(stat_dt, '2024-06-30T00:00:00Z')", []int64{1, 4}},
		{"NULLIF(stat_dt, txt)", []int64{0, 3, 4}},
		{"NULLIF(txt, stat_dt)", []int64{0, 3}},
		{"NULLIF(stat_dt, NULL)", []int64{4}},
	} {
		q := "SELECT id FROM days WHERE " + tc.expr + " IS NULL ORDER BY id"
		want, err := queryTable(c, q)
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		var got []int64
		for _, v := range want.Columns[0].Values() {
			got = append(got, v.I)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s is NULL for ids %v, want %v", tc.expr, got, tc.want)
		}
		if oracle, err := c.QueryScalar(q); err != nil || dumpTable(oracle) != dumpTable(want) {
			t.Errorf("%s: the scalar oracle answers %v (%v)", tc.expr, oracle, err)
		}
	}
	for _, text := range []string{"garbage", "1969", ""} {
		for _, expr := range []string{"NULLIF(stat_dt, '%s')", "NULLIF('%s', stat_dt)"} {
			expr = fmt.Sprintf(expr, text)
			want := fmt.Sprintf("sql: %q is not a time", text)
			for _, q := range []string{"SELECT " + expr + " FROM days", "SELECT id FROM days WHERE " + expr + " IS NULL"} {
				_, inline := c.QueryCtx(ctx, q)
				_, oracle := c.QueryScalar(q)
				for form, err := range map[string]error{"engine": inline, "oracle": oracle} {
					if err == nil || err.Error() != want {
						t.Errorf("%s (%s): err %v, want %s", q, form, err, want)
					}
				}
			}
		}
	}
}

// TestTimePartReadsTextAsComparisonsDo: YEAR, MONTH and DAY of text read
// it as the instant a comparison with a time reads, in UTC, so text past
// the range a time holds (1677-2262) raises as it does there instead of
// answering from the text's calendar fields; the scalar oracle agrees.
func TestTimePartReadsTextAsComparisonsDo(t *testing.T) {
	ctx := context.Background()
	c := NewCatalog()
	texts := table.MustNew("texts", []string{"id", "s"}, []table.Kind{table.KindInt, table.KindString})
	for i, s := range []string{"2024-02-29", "2024-06-30T23:00:00-02:00", "20240101"} {
		texts.MustAppendRow(table.Int(int64(i)), table.Str(s))
	}
	c.Register(texts)
	const q = "SELECT id, YEAR(s), MONTH(s), DAY(s) FROM texts ORDER BY id"
	got, err := queryTable(c, q)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{0, 2024, 2, 29}, {1, 2024, 7, 1}, {2, 2024, 1, 1}} // each instant's UTC fields
	for i, row := range want {
		for j, w := range row {
			if v := got.Columns[j].Value(i); v.Kind != table.KindInt || v.I != w {
				t.Errorf("%s: row %d column %d is %v, want %d", q, i, j, v, w)
			}
		}
	}
	if oracle, err := c.QueryScalar(q); err != nil || dumpTable(oracle) != dumpTable(got) {
		t.Errorf("the scalar oracle answers %v (%v)", oracle, err)
	}

	texts.MustAppendRow(table.Int(3), table.Str("9999-12-31"))
	c.Register(texts)
	for _, part := range []string{"YEAR", "MONTH", "DAY"} {
		for _, q := range []string{
			"SELECT " + part + "(s) FROM texts",
			"SELECT id FROM texts WHERE " + part + "(s) > 0",
			"SELECT " + part + "('9999-12-31') FROM texts",
		} {
			_, inline := c.QueryCtx(ctx, q)
			_, oracle := c.QueryScalar(q)
			for form, err := range map[string]error{"engine": inline, "oracle": oracle} {
				if err == nil || err.Error() != `sql: "9999-12-31" is not a time` {
					t.Errorf("%s (%s): err %v, want the text refused", q, form, err)
				}
			}
		}
	}
}
