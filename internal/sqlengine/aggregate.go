package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"datalab/internal/table"
)

// aggregate folds fn over the rows of each selected group.
func (g *vgroups) aggregate(fn *FuncCall, sel *table.Selection, n int) (table.Column, error) {
	if n == 0 {
		return nullColumn(kindOf(fn, g.base), 0), nil
	}
	col, err := g.fold(fn, sel)
	if err != nil || sel == nil {
		return col, err
	}
	return col.GatherSel(sel), nil
}

// fold computes fn for every group, in one pass over the positions, and
// returns one cell per group; only the groups sel selects (nil: all) are
// read. COUNT(*) and COUNT of a constant are the groups' counts. A bare
// column is folded over every selected row; any other argument is evaluated
// once, on the rows of the groups sel selects only, so it raises exactly
// when a per-group evaluation would. COUNT, SUM/AVG and MIN/MAX over a
// typed int or float column then fold in typed loops (foldTyped); every
// other pairing folds each group's cells through aggAcc.
func (g *vgroups) fold(fn *FuncCall, sel *table.Selection) (table.Column, error) {
	switch {
	case fn.IsStar && fn.Name != "COUNT":
		return table.Column{}, fmt.Errorf("sql: %s(*) is not supported", fn.Name)
	case fn.IsStar:
		return g.countColumn(true), nil
	case len(fn.Args) != 1:
		return table.Column{}, fmt.Errorf("sql: aggregate %s expects one argument", fn.Name)
	}
	op := aggOps[fn.Name] // evalVec folds only names isAggregate knows
	arg := fn.Args[0]
	if k, ok := constExprValue(arg, g.base); ok && op == aggCount && !fn.Distinct {
		// COUNT(1) counts the rows (none for NULL) without a column of ones.
		return g.countColumn(!k.IsNull()), nil
	}
	var col table.Column
	rows, gr := g.sel, &g.grouping
	if ref, ok := arg.(*ColumnRef); ok && !fn.Distinct {
		col = g.base.cols[ref.idx]
	} else {
		rows, gr = g.restrict(sel)
		var err error
		if col, err = evalVec(arg, g.base, rows); err != nil {
			return table.Column{}, err
		}
		rows = nil // col is positional now
	}
	if !fn.Distinct && op != aggStddev && op != aggMedian {
		if is, nulls, ok := col.Ints(); ok {
			return foldTyped(op, is, nulls, rows, gr, len(g.counts), table.ColumnFromInts), nil
		}
		if fs, nulls, ok := col.Floats(); ok {
			return foldTyped(op, fs, nulls, rows, gr, len(g.counts), table.ColumnFromFloats), nil
		}
	}
	return foldCells(fn, op, &col, rows, gr, len(g.counts)), nil
}

// countColumn is every group's count, or zeros when counted is false.
func (g *vgroups) countColumn(counted bool) table.Column {
	out := make([]int64, len(g.counts))
	if counted {
		for i, c := range g.counts {
			out[i] = int64(c)
		}
	}
	return table.ColumnFromInts("", out, nil)
}

// restrict returns the selected rows of base that belong to the groups sel
// selects, with their group ids: g.sel and g's own grouping when sel
// selects every group.
func (g *vgroups) restrict(sel *table.Selection) (*table.Selection, *grouping) {
	if sel == nil || sel.Len() == len(g.counts) {
		return g.sel, &g.grouping
	}
	all := g.idList()
	if all == nil {
		return g.sel, &g.grouping
	}
	want := make([]bool, len(g.counts))
	sel.ForEach(func(gi int) { want[gi] = true })
	keep := make([]bool, len(all))
	var ids []int32
	for i, id := range all {
		if want[id] {
			keep[i] = true
			ids = append(ids, id)
		}
	}
	return g.sel.Pick(keep, nil), &grouping{ids: ids}
}

// foldBlock is how many positions foldBlocks hands its fold at once.
const foldBlock = 1024

// zeroIDs are the group ids of a block when every position is group 0.
var zeroIDs [foldBlock]int32

// foldBlocks hands fold the cells of vals and nulls at the rows sel selects
// (nil: every row), in position order, in blocks beside the group ids of
// their positions in gr. A span's cells are handed in place; a dense
// selection's are gathered into one reused block first. A coded
// grouping's ids are mapped from its codes a block at a time, into a
// buffer only that grouping allocates.
func foldBlocks[T any](vals []T, nulls []bool, sel *table.Selection, gr *grouping, fold func(vs []T, ns []bool, gs []int32)) {
	pos := 0
	var buf []int32
	if gr.remap != nil {
		buf = make([]int32, foldBlock)
	}
	run := func(vs []T, ns []bool) {
		for len(vs) > 0 {
			m := min(len(vs), foldBlock)
			gs := zeroIDs[:m]
			switch {
			case buf != nil:
				gs = gr.idsAt(pos, buf[:m])
			case gr.ids != nil:
				gs = gr.ids[pos : pos+m]
			}
			fold(vs[:m], ns[:m], gs)
			vs, ns, pos = vs[m:], ns[m:], pos+m
		}
	}
	spans, ok := sel.Spans()
	switch {
	case sel == nil:
		run(vals, nulls)
	case ok:
		for _, sp := range spans {
			run(vals[sp.Lo:sp.Hi], nulls[sp.Lo:sp.Hi])
		}
	default:
		idx := sel.Indices()
		bv, bn := make([]T, min(len(idx), foldBlock)), make([]bool, min(len(idx), foldBlock))
		for len(idx) > 0 {
			m := min(len(idx), foldBlock)
			for j, r := range idx[:m] {
				bv[j], bn[j] = vals[r], nulls[r]
			}
			run(bv[:m], bn[:m])
			idx = idx[m:]
		}
	}
}

// foldTyped computes COUNT, SUM, AVG, MIN or MAX of each of the groups
// over a typed int or float column's cells, in typed per-group arrays that
// become the output column. Each group's cells are added in row order, and
// only a strictly smaller (larger) cell replaces a MIN (MAX) — the
// additions and the earliest-of-equals aggAcc makes, with NaN equal to
// every number as table.Compare has it — so every cell is bit-identical to
// aggAcc's.
func foldTyped[T int64 | float64](op aggOp, vals []T, nulls []bool, sel *table.Selection, gr *grouping, groups int,
	column func(string, []T, []bool) table.Column) table.Column {
	count := make([]int64, groups)
	switch op {
	case aggCount:
		foldBlocks(vals, nulls, sel, gr, func(_ []T, ns []bool, gs []int32) {
			gs = gs[:len(ns)]
			for j, null := range ns {
				if !null {
					count[gs[j]]++
				}
			}
		})
		return table.ColumnFromInts("", count, nil)
	case aggSum, aggAvg:
		total := make([]float64, groups)
		foldBlocks(vals, nulls, sel, gr, func(vs []T, ns []bool, gs []int32) {
			ns, gs = ns[:len(vs)], gs[:len(vs)]
			for j, v := range vs {
				if !ns[j] {
					total[gs[j]] += float64(v)
					count[gs[j]]++
				}
			}
		})
		empty := make([]bool, groups)
		for g, c := range count {
			empty[g] = c == 0
			if op == aggAvg && c > 0 {
				total[g] /= float64(c)
			}
		}
		return table.ColumnFromFloats("", total, empty)
	}
	best := make([]T, groups) // MIN, MAX
	foldBlocks(vals, nulls, sel, gr, func(vs []T, ns []bool, gs []int32) {
		ns, gs = ns[:len(vs)], gs[:len(vs)]
		for j, v := range vs {
			if g := gs[j]; !ns[j] && (count[g] == 0 || (op == aggMin && v < best[g]) || (op == aggMax && v > best[g])) {
				best[g] = v
				count[g] = 1
			}
		}
	})
	empty := make([]bool, groups)
	for g, c := range count {
		empty[g] = c == 0
	}
	return column("", best, empty)
}

// foldCells folds the cells of col, fn's argument, at the rows sel selects
// (nil: every row) into their groups' aggAcc, in position order; DISTINCT
// folds only the first of each distinct non-NULL value of a group.
func foldCells(fn *FuncCall, op aggOp, col *table.Column, sel *table.Selection, gr *grouping, groups int) table.Column {
	distinct := fn.Distinct
	ids := gr.idList()
	accs := make([]aggAcc, groups)
	for g := range accs {
		accs[g].op = op
	}
	var seen map[string]bool // a group id, then the cell's table.AppendKey
	var kb []byte
	if distinct {
		seen = map[string]bool{}
	}
	at := col.Value
	it := table.IterSelection(sel, col.Len())
	for pos := 0; ; pos++ {
		r, ok := it.Next()
		if !ok {
			break
		}
		var g int32
		if ids != nil {
			g = ids[pos]
		}
		if distinct {
			if col.IsNullAt(r) {
				continue
			}
			kb = col.AppendKey(binary.LittleEndian.AppendUint32(kb[:0], uint32(g)), r)
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
		}
		accs[g].add(r, at)
	}
	b := newColBuilder(fn, aggKind(op, col.Kind), groups)
	for g := range accs {
		b.add(accs[g].value())
	}
	return b.col
}

// aggOp is what an aggregate does with each value it folds.
type aggOp uint8

const (
	aggCount aggOp = iota
	aggSum
	aggAvg
	aggStddev
	aggMedian
	aggMin
	aggMax
)

var aggOps = map[string]aggOp{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "STDDEV": aggStddev,
	"MEDIAN": aggMedian, "MIN": aggMin, "MAX": aggMax,
}

// aggAcc is the engine's one aggregate fold: grouped, DISTINCT and window
// aggregates, and the test oracle's, all reduce through it. COUNT counts the
// non-NULL values of any kind (every row, for COUNT(*)); SUM, AVG, STDDEV
// and MEDIAN fold the AsFloat-convertible values left to right and are NULL
// over none, SUM always KindFloat and STDDEV the sample deviation (0 for one
// value); MIN and MAX order by table.Compare and keep the earliest value on
// ties. The typed per-group loops of foldTyped make the same additions and
// keep the same value on ties, which TestTypedAggregatesMatchFold pins.
type aggAcc struct {
	op    aggOp
	star  bool      // COUNT(*): every row counts, its value unread
	count int       // non-NULL values seen (rows, for COUNT(*))
	n     int       // values folded into total
	total float64   // their left-to-right sum
	nums  []float64 // the values themselves, for STDDEV and MEDIAN
	best  table.Value
}

func newAggAcc(name string, star bool) (aggAcc, error) {
	op, ok := aggOps[name]
	if !ok {
		return aggAcc{}, fmt.Errorf("sql: unknown aggregate %s", name)
	}
	return aggAcc{op: op, star: star}, nil
}

// add folds the value at pos. It takes the position and the column's reader
// rather than the value, which keeps a window frame's per-row fold as fast
// as a typed loop's call.
func (a *aggAcc) add(pos int, at func(int) table.Value) {
	if a.star {
		a.count++
		return
	}
	v := at(pos)
	if v.IsNull() {
		return
	}
	a.count++
	switch a.op {
	case aggSum, aggAvg, aggStddev, aggMedian:
		if f, ok := v.AsFloat(); ok {
			a.total += f
			a.n++
			if a.op == aggStddev || a.op == aggMedian {
				a.nums = append(a.nums, f)
			}
		}
	case aggMin:
		if a.best.IsNull() || table.Compare(v, a.best) < 0 {
			a.best = v
		}
	case aggMax:
		if a.best.IsNull() || table.Compare(v, a.best) > 0 {
			a.best = v
		}
	}
}

func (a *aggAcc) value() table.Value {
	switch a.op {
	case aggCount:
		return table.Int(int64(a.count))
	case aggMin, aggMax:
		return a.best
	}
	if a.n == 0 {
		return table.Null()
	}
	mean := a.total / float64(a.n)
	switch a.op {
	case aggSum:
		return table.Float(a.total)
	case aggAvg:
		return table.Float(mean)
	case aggStddev:
		if a.n < 2 {
			return table.Float(0)
		}
		var ss float64
		for _, f := range a.nums {
			d := f - mean
			ss += d * d
		}
		return table.Float(math.Sqrt(ss / float64(a.n-1)))
	}
	sort.Float64s(a.nums) // MEDIAN
	m := a.n / 2
	if a.n%2 == 1 {
		return table.Float(a.nums[m])
	}
	return table.Float((a.nums[m-1] + a.nums[m]) / 2)
}
