package sqlengine

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"

	"datalab/internal/table"
)

// Window function execution. Both executors compute every window call's
// output column up front (before projection) and hand the per-row values
// to expression evaluation through env.window, by the slot the resolver
// numbered the call with (plan.wins).
//
// The partition/sort machinery differs per engine — the scalar reference
// sorts boxed values with sort.SliceStable while the vectorized path
// reuses the memcmp sort-key kernel (sortkey.go) when the ORDER BY keys
// encode — but the accumulation itself (computeWindowValues/windowAcc) is
// shared code, so float running sums are bit-identical across engines and
// the differential harness can compare results exactly.

// collectWindowCalls appends every window call (FuncCall with an OVER
// clause) in e to dst, deduplicated by node pointer. It does not descend
// into a window call's own arguments or spec (nesting is rejected at
// parse time) nor into subqueries (their windows belong to the inner
// statement).
func collectWindowCalls(e Expr, dst []*FuncCall) []*FuncCall {
	walkExpr(e, func(e Expr) bool {
		fn, ok := e.(*FuncCall)
		if !ok || fn.Over == nil {
			return true
		}
		for _, f := range dst {
			if f == fn {
				return false
			}
		}
		dst = append(dst, fn)
		return false
	})
	return dst
}

// exprHasWindow reports whether e contains a window function call.
func exprHasWindow(e Expr) bool {
	return anyExpr(e, func(e Expr) (bool, bool) {
		fn, ok := e.(*FuncCall)
		return ok && fn.Over != nil, true
	})
}

// statementWindows returns the window calls of a select list and ORDER BY
// in that order, deduplicated by node pointer — the parser's placement
// check; a plan's calls are plan.wins.
func statementWindows(items []SelectItem, order []OrderItem) []*FuncCall {
	var wins []*FuncCall
	for _, it := range items {
		wins = collectWindowCalls(it.Expr, wins)
	}
	for _, o := range order {
		wins = collectWindowCalls(o.Expr, wins)
	}
	return wins
}

func errWindowContext(fn *FuncCall) error {
	return fmt.Errorf("sql: window function %s is only allowed in the select list or ORDER BY", fn.Name)
}

// peerGroupEnds returns, for each index k of the sorted partition, the
// exclusive end of k's peer group (rows comparing equal on every ORDER BY
// key). Sorted order makes peer groups contiguous, so one forward scan
// comparing each row to its group's first suffices.
func peerGroupEnds(sorted []int, peers func(a, b int) bool) []int {
	ends := make([]int, len(sorted))
	for s := 0; s < len(sorted); {
		e := s + 1
		for e < len(sorted) && peers(sorted[s], sorted[e]) {
			e++
		}
		for k := s; k < e; k++ {
			ends[k] = e
		}
		s = e
	}
	return ends
}

// computeWindowValues fills out[pos] for every position of one sorted
// partition. sorted holds the partition's positions in window order; ends
// is peerGroupEnds over it; argAt returns the evaluated argument at a
// position. This function is the shared accumulation core of both
// executors — any change here changes both sides of the differential
// harness together.
func computeWindowValues(fn *FuncCall, sorted, ends []int, argAt func(int) table.Value, out []table.Value) {
	switch fn.Name {
	case "ROW_NUMBER":
		for k, pos := range sorted {
			out[pos] = table.Int(int64(k + 1))
		}
	case "RANK":
		for s := 0; s < len(sorted); {
			e := ends[s]
			v := table.Int(int64(s + 1))
			for k := s; k < e; k++ {
				out[sorted[k]] = v
			}
			s = e
		}
	case "DENSE_RANK":
		rank := int64(0)
		for s := 0; s < len(sorted); {
			e := ends[s]
			rank++
			v := table.Int(rank)
			for k := s; k < e; k++ {
				out[sorted[k]] = v
			}
			s = e
		}
	default: // COUNT/SUM/AVG/MIN/MAX
		switch {
		case fn.Over.Frame != nil:
			// Explicit ROWS frame: a fresh accumulator per row over
			// sorted[lo..k]. Frames are row-based, so peers do not share
			// values.
			f := fn.Over.Frame
			for k, pos := range sorted {
				lo := 0
				if !f.Unbounded {
					lo = k - int(f.Preceding)
					if lo < 0 {
						lo = 0
					}
				}
				acc := newWindowAcc(fn)
				for j := lo; j <= k; j++ {
					acc.add(sorted[j], argAt)
				}
				out[pos] = acc.value()
			}
		case len(fn.Over.OrderBy) == 0:
			// No ORDER BY: the whole partition is every row's frame.
			acc := newWindowAcc(fn)
			for _, pos := range sorted {
				acc.add(pos, argAt)
			}
			v := acc.value()
			for _, pos := range sorted {
				out[pos] = v
			}
		default:
			// Default frame with ORDER BY: running aggregate from the
			// partition start through the current row's peer group (RANGE
			// UNBOUNDED PRECEDING TO CURRENT ROW semantics — peers share).
			acc := newWindowAcc(fn)
			for s := 0; s < len(sorted); {
				e := ends[s]
				for k := s; k < e; k++ {
					acc.add(sorted[k], argAt)
				}
				v := acc.value()
				for k := s; k < e; k++ {
					out[sorted[k]] = v
				}
				s = e
			}
		}
	}
}

// windowAcc accumulates one aggregate window frame, mirroring
// finishAggregate's semantics exactly: COUNT counts non-NULL values of
// any kind (or rows for COUNT(*)); SUM/AVG total the float-convertible
// non-NULL values left to right and return NULL over an empty frame, with
// SUM always KindFloat; MIN/MAX compare with table.Compare and keep the
// earliest value on ties.
type windowAcc struct {
	fn    *FuncCall
	count int64   // non-NULL values seen (rows, for COUNT(*))
	n     int64   // float-convertible values folded into total
	total float64 // left-to-right running total
	best  table.Value
	found bool
}

func newWindowAcc(fn *FuncCall) *windowAcc {
	return &windowAcc{fn: fn, best: table.Null()}
}

func (a *windowAcc) add(pos int, argAt func(int) table.Value) {
	if a.fn.IsStar {
		a.count++
		return
	}
	v := argAt(pos)
	if v.IsNull() {
		return
	}
	a.count++
	switch a.fn.Name {
	case "SUM", "AVG":
		if f, ok := v.AsFloat(); ok {
			a.total += f
			a.n++
		}
	case "MIN":
		if !a.found || table.Compare(v, a.best) < 0 {
			a.best, a.found = v, true
		}
	case "MAX":
		if !a.found || table.Compare(v, a.best) > 0 {
			a.best, a.found = v, true
		}
	}
}

func (a *windowAcc) value() table.Value {
	switch a.fn.Name {
	case "COUNT":
		return table.Int(a.count)
	case "SUM":
		if a.n == 0 {
			return table.Null()
		}
		return table.Float(a.total)
	case "AVG":
		if a.n == 0 {
			return table.Null()
		}
		return table.Float(a.total / float64(a.n))
	case "MIN", "MAX":
		if !a.found {
			return table.Null()
		}
		return a.best
	}
	return table.Null()
}

// --- scalar driver ---

// computeWindowsScalar evaluates every window call over the filtered
// scalar relation, returning per-slot value slices indexed by row
// position in rel.rows; nil without window calls.
func computeWindowsScalar(rel *srel, wins []*FuncCall) ([][]table.Value, error) {
	var out [][]table.Value
	for _, fn := range wins {
		vals, err := scalarWindowColumn(rel, fn)
		if err != nil {
			return nil, err
		}
		out = append(out, vals)
	}
	return out, nil
}

func scalarWindowColumn(rel *srel, fn *FuncCall) ([]table.Value, error) {
	n := len(rel.rows)
	spec := fn.Over
	ordVals := make([][]table.Value, len(spec.OrderBy))
	for i := range ordVals {
		ordVals[i] = make([]table.Value, n)
	}
	var argVals []table.Value
	if !fn.IsStar && len(fn.Args) == 1 {
		argVals = make([]table.Value, n)
	}
	var keys []string
	if len(spec.PartitionBy) > 0 {
		keys = make([]string, n)
	}
	for ri, row := range rel.rows {
		ev := &rowEnv{rel: rel, row: row}
		if keys != nil {
			var kb strings.Builder
			for _, pe := range spec.PartitionBy {
				v, err := evalExpr(pe, ev)
				if err != nil {
					return nil, err
				}
				kb.WriteString(v.Key())
				kb.WriteByte('\x1f')
			}
			keys[ri] = kb.String()
		}
		for k, o := range spec.OrderBy {
			v, err := evalExpr(o.Expr, ev)
			if err != nil {
				return nil, err
			}
			ordVals[k][ri] = v
		}
		if argVals != nil {
			v, err := evalExpr(fn.Args[0], ev)
			if err != nil {
				return nil, err
			}
			argVals[ri] = v
		}
	}

	argAt := func(int) table.Value { return table.Null() }
	if argVals != nil {
		argAt = func(pos int) table.Value { return argVals[pos] }
	}
	out := make([]table.Value, n)
	for _, part := range partitionPositions(keys, n) {
		sorted := append([]int(nil), part...)
		if len(spec.OrderBy) > 0 {
			// Identical comparator and algorithm to boxedSortPerm (and to
			// the vectorized fallback sorter): SliceStable, Desc-aware, no
			// position tie-break.
			sort.SliceStable(sorted, func(a, b int) bool {
				ra, rb := sorted[a], sorted[b]
				for k := range spec.OrderBy {
					c := table.Compare(ordVals[k][ra], ordVals[k][rb])
					if c == 0 {
						continue
					}
					if spec.OrderBy[k].Desc {
						return c > 0
					}
					return c < 0
				}
				return false
			})
		}
		peers := func(a, b int) bool {
			for k := range spec.OrderBy {
				if table.Compare(ordVals[k][a], ordVals[k][b]) != 0 {
					return false
				}
			}
			return true
		}
		computeWindowValues(fn, sorted, peerGroupEnds(sorted, peers), argAt, out)
	}
	return out, nil
}

// partitionPositions groups positions 0..n-1 by key in first-appearance
// order; nil keys means a single whole-input partition.
func partitionPositions(keys []string, n int) [][]int {
	if keys == nil {
		if n == 0 {
			return nil
		}
		return [][]int{iotaInts(n)}
	}
	m := make(map[string]int, 16)
	var parts [][]int
	for i := 0; i < n; i++ {
		gi, ok := m[keys[i]]
		if !ok {
			gi = len(parts)
			m[keys[i]] = gi
			parts = append(parts, nil)
		}
		parts[gi] = append(parts[gi], i)
	}
	return parts
}

// --- vectorized driver ---

// computeWindowsVec evaluates every window call over the selected rows,
// returning per-slot columns indexed by selection position.
func computeWindowsVec(ctx context.Context, wins []*FuncCall, rel *vrel, sel *table.Selection) ([]table.Column, error) {
	out := make([]table.Column, len(wins))
	for slot, fn := range wins {
		col, err := vecWindowColumn(ctx, fn, rel, sel)
		if err != nil {
			return nil, err
		}
		out[slot] = col
	}
	return out, nil
}

func vecWindowColumn(ctx context.Context, fn *FuncCall, rel *vrel, sel *table.Selection) (table.Column, error) {
	n := selLen(rel, sel)
	spec := fn.Over
	parts, err := windowPartitionsVec(ctx, spec.PartitionBy, rel, sel, n)
	if err != nil {
		return table.Column{}, err
	}
	keyCols := make([]table.Column, len(spec.OrderBy))
	for k, o := range spec.OrderBy {
		col, err := evalVec(o.Expr, rel, sel)
		if err != nil {
			return table.Column{}, err
		}
		keyCols[k] = col
	}
	argAt := func(int) table.Value { return table.Null() }
	if !fn.IsStar && len(fn.Args) == 1 {
		argCol, err := evalVec(fn.Args[0], rel, sel)
		if err != nil {
			return table.Column{}, err
		}
		argAt = func(pos int) table.Value { return argCol.Value(pos) }
	}
	sortPart, peers := windowSorter(keyCols, spec.OrderBy, n)
	vals := make([]table.Value, n)
	for _, part := range parts {
		sorted := sortPart(part)
		computeWindowValues(fn, sorted, peerGroupEnds(sorted, peers), argAt, vals)
	}
	return columnOfValues(vals), nil
}

// windowPartitionsVec partitions selection positions 0..n-1 by the
// PARTITION BY keys in first-appearance order. Window columns are
// positional, so partitionRows runs without a selection: the rows it
// returns are the positions themselves.
func windowPartitionsVec(ctx context.Context, exprs []Expr, rel *vrel, sel *table.Selection, n int) ([][]int, error) {
	if len(exprs) == 0 {
		if n == 0 {
			return nil, nil
		}
		return [][]int{iotaInts(n)}, nil
	}
	keyCols := make([]table.Column, len(exprs))
	for i, e := range exprs {
		col, err := evalVec(e, rel, sel)
		if err != nil {
			return nil, err
		}
		keyCols[i] = col
	}
	return partitionRows(ctx, keyCols, nil, n)
}

// windowSorter returns the partition sorter and the peer predicate for
// the ORDER BY keys (positions are selection positions). When every key
// column has a memcmp encoding, keys for all positions are encoded once
// and partitions sort through the sort-key kernel's (key, position)
// comparator — which equals the stable boxed order, since equal values
// encode to equal bytes. Otherwise the boxed stable sort runs, the same
// algorithm and comparator as the scalar reference.
func windowSorter(keyCols []table.Column, order []OrderItem, n int) (func([]int) []int, func(a, b int) bool) {
	if len(order) == 0 {
		return func(part []int) []int { return part },
			func(a, b int) bool { return true }
	}
	sortSegment := func(seg []int) { boxedSortSegment(keyCols, order, seg) }
	peers := func(a, b int) bool { return boxedCompare(keyCols, order, a, b) == 0 }
	if specs, ok := sortKeySpecs(keyCols, order); ok {
		ks := buildKeyset(specs, 0, n)
		sortSegment = ks.sortSegment
		peers = func(a, b int) bool { return bytes.Equal(ks.key(a), ks.key(b)) }
	}
	return func(part []int) []int {
		sorted := append([]int(nil), part...)
		sortSegment(sorted)
		return sorted
	}, peers
}
