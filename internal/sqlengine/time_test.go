package sqlengine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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
// second apart (which render alike) and repeated instants; events.ets
// shares some of them, so a join on the two keys matches, fans out and
// misses.
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
// string literals (which compare by string form) under each operator and
// BETWEEN, in the kernel's shape and the general one; as an ORDER BY, GROUP
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
// then pins a digest of their rendered results and kinds: the digest was
// taken when time cells were stored as time.Time, so moving them to
// another storage changed no answer.
func TestTimeCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randCatalog(rng, 40)
	registerTimeTables(c)
	var sb strings.Builder
	for _, q := range timeStatements() {
		diffOneQuery(t, rng, c, q, "")
		res, err := queryTable(c, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sb.WriteString(q + "\n")
		renderTable(&sb, res)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	const want = "19a5493290a087240eaad09f903501d28bea7ef7011f07054de4001517c1350a"
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
	if got, want := res.Strings(), [][]string{{"2024-02-29 08:00:00", "9"}}; !reflect.DeepEqual(got, want) {
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
