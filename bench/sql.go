package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"datalab"
	"datalab/internal/sqlengine"
)

// sql_analytics: analytic statements over a 100k-row fact table through
// Platform.QueryCtx. internal/sqlengine and internal/table do all the
// work, the agents none. Seven templates fit the plan cache (hit rate
// ≈ 1.0): the fits-in-cache case. Every range has a fixed width, so the
// seed moves where a statement reads, never how much.
const (
	factRows       = 100_000
	factLoadRows   = factRows / 2 // LoadRecords; the rest arrives in appends
	factAppends    = 25           // so storage is 26 chunks
	custRows       = 2_000
	sqlOpsPerClass = 70
	// replayShiftMax bounds the per-replay literal perturbation; ranges
	// are drawn this far clear of the table's end.
	replayShiftMax = 1000
)

var (
	factRegions  = []string{"apac", "emea", "latam", "mena", "na-east", "na-west", "nordics", "oceania"}
	factKinds    = []string{"order", "refund", "renewal", "trial", "upgrade"}
	custSegments = []string{"consumer", "enterprise", "public", "smb"}
	// caseBands are the CASE thresholds. They sit in the select list,
	// where the fingerprinter extracts no literals, so they stay fixed:
	// perturbing them would mint a new plan-cache template per replay.
	caseBands = [2]float64{2500, 7500}
)

// sqlClass is one statement template: its range width, its text for a
// range [lo, hi), and a reference that computes the expected row count
// and checksum straight from the generator's arrays.
type sqlClass struct {
	name  string
	width int
	text  func(lo, hi int) string
	want  func(d *factData, lo, hi int) (rows int, checksum float64)
}

var sqlClasses = []sqlClass{
	{"scan_filter", 1000,
		func(lo, hi int) string {
			return fmt.Sprintf("SELECT COUNT(*) AS n FROM facts WHERE id >= %d AND id < %d", lo, hi)
		},
		func(d *factData, lo, hi int) (int, float64) { return 1, 1000 }}, // closed form: ids are dense
	{"group", factRows / 2,
		func(lo, hi int) string {
			return fmt.Sprintf("SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM facts WHERE id >= %d AND id < %d GROUP BY region ORDER BY region", lo, hi)
		},
		(*factData).wantGroup},
	{"topk", factRows / 2,
		func(lo, hi int) string {
			return fmt.Sprintf("SELECT id, amount FROM facts WHERE id >= %d AND id < %d ORDER BY amount DESC, id LIMIT 20", lo, hi)
		},
		(*factData).wantTopK},
	{"join", factRows / 2,
		func(lo, hi int) string {
			return fmt.Sprintf("SELECT c.segment, COUNT(*) AS n, SUM(f.amount) AS total FROM facts f JOIN custs c ON f.cust = c.cust WHERE f.id >= %d AND f.id < %d GROUP BY c.segment ORDER BY c.segment", lo, hi)
		},
		(*factData).wantJoin},
	{"window", factRows / 20,
		func(lo, hi int) string {
			return fmt.Sprintf("SELECT id, region, amount, RANK() OVER (PARTITION BY region ORDER BY amount DESC) AS rk FROM facts WHERE id >= %d AND id < %d", lo, hi)
		},
		(*factData).wantWindow},
	{"case_group", factRows / 10,
		func(lo, hi int) string {
			// GROUP BY repeats the expression: the engine does not
			// resolve a select-list alias there.
			band := fmt.Sprintf("CASE WHEN amount < %g THEN 'low' WHEN amount < %g THEN 'mid' ELSE 'high' END", caseBands[0], caseBands[1])
			return fmt.Sprintf("SELECT %s AS band, kind, COUNT(*) AS n, SUM(qty) AS units FROM facts WHERE id >= %d AND id < %d GROUP BY %s, kind ORDER BY band, kind",
				band, lo, hi, band)
		},
		(*factData).wantCaseGroup},
	{"project", 4000,
		func(lo, hi int) string {
			return fmt.Sprintf("SELECT id, cust, amount FROM facts WHERE id >= %d AND id < %d", lo, hi)
		},
		(*factData).wantProject},
}

// factData is the generator's own copy of the tables, column-wise; row
// i of facts has id i. The references read it, the engine never does.
type factData struct {
	cust    []int
	region  []int // index into factRegions
	kind    []int // index into factKinds
	amount  []float64
	qty     []int
	segment []int // per customer, index into custSegments
}

// keyFactor folds a row's string cells into a multiplier in [1, 2), so
// a checksum binds each number to the group it was reported under.
func keyFactor(h uint32) float64 { return 1 + float64(h%1024)/1024 }

func strHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

func (d *factData) wantGroup(lo, hi int) (int, float64) {
	n := make([]int, len(factRegions))
	total := make([]float64, len(factRegions))
	for i := lo; i < hi; i++ {
		n[d.region[i]]++
		total[d.region[i]] += d.amount[i]
	}
	rows, sum := 0, 0.0
	for r, name := range factRegions {
		if n[r] > 0 {
			rows++
			sum += (float64(n[r]) + total[r]) * keyFactor(strHash(name))
		}
	}
	return rows, sum
}

func (d *factData) wantTopK(lo, hi int) (int, float64) {
	// One pass keeping the best 20 in order (amount DESC, id ASC; ids
	// ascend, so a tie goes behind the rows already kept).
	const k = 20
	best := make([]int, 0, k+1)
	for i := lo; i < hi; i++ {
		pos := sort.Search(len(best), func(j int) bool { return d.amount[best[j]] < d.amount[i] })
		if pos == k {
			continue
		}
		best = append(best, 0)
		copy(best[pos+1:], best[pos:])
		best[pos] = i
		best = best[:min(len(best), k)]
	}
	sum := 0.0
	for _, id := range best {
		sum += float64(id) + d.amount[id]
	}
	return k, sum
}

func (d *factData) wantJoin(lo, hi int) (int, float64) {
	n := make([]int, len(custSegments))
	total := make([]float64, len(custSegments))
	for i := lo; i < hi; i++ {
		s := d.segment[d.cust[i]]
		n[s]++
		total[s] += d.amount[i]
	}
	rows, sum := 0, 0.0
	for s, name := range custSegments {
		if n[s] > 0 {
			rows++
			sum += (float64(n[s]) + total[s]) * keyFactor(strHash(name))
		}
	}
	return rows, sum
}

func (d *factData) wantWindow(lo, hi int) (int, float64) {
	byRegion := make([][]int, len(factRegions))
	for i := lo; i < hi; i++ {
		byRegion[d.region[i]] = append(byRegion[d.region[i]], i)
	}
	sum := 0.0
	for r, ids := range byRegion {
		sort.Slice(ids, func(a, b int) bool { return d.amount[ids[a]] > d.amount[ids[b]] })
		key := keyFactor(strHash(factRegions[r]))
		rank := 0
		for pos, id := range ids {
			if pos == 0 || d.amount[id] != d.amount[ids[pos-1]] {
				rank = pos + 1 // RANK: peers share the rank of their first row
			}
			sum += (float64(id) + d.amount[id] + float64(rank)) * key
		}
	}
	return hi - lo, sum
}

func (d *factData) wantCaseGroup(lo, hi int) (int, float64) {
	bands := []string{"low", "mid", "high"}
	n := make([]int, len(bands)*len(factKinds))
	units := make([]int, len(n))
	for i := lo; i < hi; i++ {
		b := 2
		if d.amount[i] < caseBands[0] {
			b = 0
		} else if d.amount[i] < caseBands[1] {
			b = 1
		}
		g := b*len(factKinds) + d.kind[i]
		n[g]++
		units[g] += d.qty[i]
	}
	rows, sum := 0, 0.0
	for g := range n {
		if n[g] > 0 {
			rows++
			key := strHash(bands[g/len(factKinds)]) ^ strHash(factKinds[g%len(factKinds)])
			sum += float64(n[g]+units[g]) * keyFactor(key)
		}
	}
	return rows, sum
}

func (d *factData) wantProject(lo, hi int) (int, float64) {
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += float64(i) + float64(d.cust[i]) + d.amount[i]
	}
	return hi - lo, sum
}

// checksumResult drains res and folds every cell into an order-
// independent checksum: per row, the sum of its numeric cells times the
// keyFactor of its string cells (XOR of their hashes).
func checksumResult(res *datalab.Result) (rows int, checksum float64, err error) {
	var nums []float64
	var keys []uint32
	for b := res.Next(); b != nil; b = res.Next() {
		n := b.NumRows()
		nums, keys = append(nums[:0], make([]float64, n)...), append(keys[:0], make([]uint32, n)...)
		for c := 0; c < b.NumCols(); c++ {
			if ints, _, ok := b.Int64s(c); ok {
				for i := 0; i < n; i++ {
					nums[i] += float64(ints[i])
				}
			} else if floats, _, ok := b.Float64s(c); ok {
				for i := 0; i < n; i++ {
					nums[i] += floats[i]
				}
			} else if strs, _, ok := b.StringsCol(c); ok {
				for i := 0; i < n; i++ {
					keys[i] ^= strHash(strs[i])
				}
			} else {
				return 0, 0, fmt.Errorf("column %d of the result is neither int, float nor string", c)
			}
		}
		for i := 0; i < n; i++ {
			checksum += nums[i] * keyFactor(keys[i])
		}
		rows += n
	}
	return rows, checksum, res.Err()
}

// closeEnough compares checksums up to float summation order.
func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

type sqlOp struct {
	class int
	lo    int // base literal; replay r reads [lo+r, lo+r+width)
}

type sqlAnalytics struct {
	data     *factData
	factRecs [][]string
	custRecs [][]string
	ops      []sqlOp
	p        *datalab.Platform
	texts    []string // this replay's statements
	wantRows []int
	wantSum  []float64
	rowsOut  int // result rows of one replay
	cache    planCacheDelta
}

// planCacheDelta samples the plan-cache counters over replays.
type planCacheDelta struct {
	base           datalab.PlanCacheStats
	hitRate        []float64
	evictionsPerOp []float64
}

func (d *planCacheDelta) begin(p *datalab.Platform) { d.base = p.PlanCacheStats() }

func (d *planCacheDelta) end(p *datalab.Platform, ops int) {
	c := p.PlanCacheStats()
	hits, misses := c.Hits-d.base.Hits, c.Misses-d.base.Misses
	d.hitRate = append(d.hitRate, float64(hits)/float64(hits+misses))
	d.evictionsPerOp = append(d.evictionsPerOp, float64(c.Evictions-d.base.Evictions)/float64(ops))
}

// report adds the medians over the sampled replays to a layer map.
func (d *planCacheDelta) report(out map[string]float64) {
	out["sqlengine.plan_cache_hit_rate"] = median(d.hitRate)
	out["sqlengine.plan_cache_evictions_per_op"] = median(d.evictionsPerOp)
}

func newSQLAnalytics(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &factData{}
	w := &sqlAnalytics{data: d}
	for c := 0; c < custRows; c++ {
		d.segment = append(d.segment, rng.Intn(len(custSegments)))
		w.custRecs = append(w.custRecs, []string{strconv.Itoa(c), custSegments[d.segment[c]]})
	}
	for i := 0; i < factRows; i++ {
		d.cust = append(d.cust, rng.Intn(custRows))
		d.region = append(d.region, rng.Intn(len(factRegions)))
		d.kind = append(d.kind, rng.Intn(len(factKinds)))
		d.amount = append(d.amount, float64(rng.Intn(1_000_000))/100)
		d.qty = append(d.qty, 1+rng.Intn(10))
		w.factRecs = append(w.factRecs, []string{
			strconv.Itoa(i), strconv.Itoa(d.cust[i]), factRegions[d.region[i]], factKinds[d.kind[i]],
			strconv.FormatFloat(d.amount[i], 'f', 2, 64), strconv.Itoa(d.qty[i]),
		})
	}
	for c, class := range sqlClasses {
		for k := 0; k < sqlOpsPerClass; k++ {
			w.ops = append(w.ops, sqlOp{class: c, lo: rng.Intn(factRows - class.width - replayShiftMax)})
		}
	}
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	w.texts = make([]string, len(w.ops))
	w.wantRows = make([]int, len(w.ops))
	w.wantSum = make([]float64, len(w.ops))
	return w, nil
}

func (w *sqlAnalytics) numOps() int   { return len(w.ops) }
func (w *sqlAnalytics) mutates() bool { return false }

func (w *sqlAnalytics) describe() []string {
	return []string{
		fmt.Sprintf("facts: %d rows in %d chunks (LoadRecords + %d AppendRecords); custs: %d rows", factRows, factAppends+1, factAppends, custRows),
		fmt.Sprintf("%d statements, %d each of %d classes, shuffled; every range literal shifts by the replay index", len(w.ops), sqlOpsPerClass, len(sqlClasses)),
	}
}

func (w *sqlAnalytics) build() error {
	p, err := datalab.New()
	if err != nil {
		return err
	}
	cols := []string{"id", "cust", "region", "kind", "amount", "qty"}
	if err := p.LoadRecords("facts", cols, w.factRecs[:factLoadRows]); err != nil {
		return err
	}
	batch := (factRows - factLoadRows) / factAppends
	for lo := factLoadRows; lo < factRows; lo += batch {
		if err := p.AppendRecords("facts", w.factRecs[lo:lo+batch]); err != nil {
			return err
		}
	}
	if err := p.LoadRecords("custs", []string{"cust", "segment"}, w.custRecs); err != nil {
		return err
	}
	w.p = p
	return nil
}

func (w *sqlAnalytics) teardown() { w.p = nil }

func (w *sqlAnalytics) begin(r replay) error {
	shift := r.Index % replayShiftMax
	w.rowsOut = 0
	for i, op := range w.ops {
		class := &sqlClasses[op.class]
		lo := op.lo + shift
		w.texts[i] = class.text(lo, lo+class.width)
		w.wantRows[i], w.wantSum[i] = class.want(w.data, lo, lo+class.width)
		w.rowsOut += w.wantRows[i]
	}
	w.cache.begin(w.p)
	return nil
}

func (w *sqlAnalytics) end(r replay) error {
	if r.Warm {
		return nil
	}
	w.cache.end(w.p, len(w.ops))
	return nil
}

func (w *sqlAnalytics) check(i, rows int, checksum float64) error {
	if rows != w.wantRows[i] || !closeEnough(checksum, w.wantSum[i]) {
		return fmt.Errorf("%s: got %d rows checksum %.6f, reference says %d rows checksum %.6f: %s",
			sqlClasses[w.ops[i].class].name, rows, checksum, w.wantRows[i], w.wantSum[i], w.texts[i])
	}
	return nil
}

func (w *sqlAnalytics) op(i int) error {
	res, err := w.p.QueryCtx(context.Background(), w.texts[i])
	if err != nil {
		return fmt.Errorf("%s: %w", sqlClasses[w.ops[i].class].name, err)
	}
	rows, checksum, err := checksumResult(res)
	if err != nil {
		return err
	}
	return w.check(i, rows, checksum)
}

func (w *sqlAnalytics) tracedOp(i int, tr *tracer) error {
	root := tr.start("op")
	id := tr.start("sqlengine.exec")
	res, err := w.p.QueryCtx(context.Background(), w.texts[i])
	tr.finish(id)
	if err != nil {
		tr.finish(root)
		return fmt.Errorf("%s: %w", sqlClasses[w.ops[i].class].name, err)
	}
	id = tr.start("sqlengine.drain")
	rows, checksum, err := checksumResult(res)
	tr.finishCount(id, int64(rows))
	tr.finish(root)
	if err != nil {
		return err
	}
	if err := w.check(i, rows, checksum); err != nil {
		return err
	}
	return probeFrontEnd(tr, w.texts[i])
}

// probeFrontEnd times what one statement costs the front of the engine:
// Fingerprint, and Parse of the template — the price of a plan-cache miss.
func probeFrontEnd(tr *tracer, sql string) error {
	probe := tr.start("probe")
	defer tr.finish(probe)
	id := tr.start("sqlengine.fingerprint")
	template, _, ok := sqlengine.Fingerprint(sql)
	tr.finish(id)
	if !ok {
		template = sql
	}
	id = tr.start("sqlengine.parse")
	_, err := sqlengine.Parse(template)
	tr.finish(id)
	return err
}

func (w *sqlAnalytics) layers(rd *runData) (map[string]float64, error) {
	tr, n := rd.tr, rd.n
	out := map[string]float64{
		"sqlengine.exec_ms":             tr.mean(n, false, "sqlengine.exec") * 1e3,
		"sqlengine.drain_ms":            tr.mean(n, false, "sqlengine.drain") * 1e3,
		"sqlengine.fingerprint_us":      tr.mean(n, false, "sqlengine.fingerprint") * 1e6,
		"sqlengine.parse_us":            tr.mean(n, false, "sqlengine.parse") * 1e6,
		"sqlengine.rows_in_per_row_out": float64(factRows) * float64(n) / float64(w.rowsOut),
	}
	w.cache.report(out)
	perOp := perOpMedians(rd.latency)
	byClass := make([][]float64, len(sqlClasses))
	for i, op := range w.ops {
		byClass[op.class] = append(byClass[op.class], perOp[i])
	}
	for c, class := range sqlClasses {
		out["sqlengine."+class.name+"_ms"] = median(byClass[c]) * 1e3
	}
	return out, nil
}
