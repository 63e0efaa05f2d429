package sqlengine

import (
	"context"
	"fmt"

	"datalab/internal/table"
)

// Window function execution. Every window call's output column is computed
// up front — over the projection's selection, before any select item
// evaluates — and evalVec reads it through vrel.win, by the slot the
// resolver numbered the call with (plan.wins). Partitions are segments of
// one permutation of the positions (partitionPerm), each sorted in place
// by the ORDER BY comparator (rowOrder, sort.go), which also decides which
// rows are peers. The accumulation itself (computeWindowValues, folding
// through aggAcc) is shared with the row-at-a-time oracle's window driver
// in the package's test files, so float running sums are bit-identical and
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

// computeWindowValues calls set(pos, value) for every position of one
// sorted partition. sorted holds the partition's positions in window order;
// ends is peerGroupEnds over it; argAt returns the evaluated argument at a
// position. An explicit ROWS frame checks ctx every 4,096 rows it folds.
// The test oracle's window driver shares it — any change here changes both
// sides of the differential harness together.
func computeWindowValues(ctx context.Context, fn *FuncCall, sorted, ends []int, argAt func(int) table.Value, set func(int, table.Value)) error {
	switch fn.Name {
	case "ROW_NUMBER":
		for k, pos := range sorted {
			set(pos, table.Int(int64(k+1)))
		}
	case "RANK":
		for s := 0; s < len(sorted); {
			e := ends[s]
			v := table.Int(int64(s + 1))
			for k := s; k < e; k++ {
				set(sorted[k], v)
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
				set(sorted[k], v)
			}
			s = e
		}
	default: // COUNT/SUM/AVG/MIN/MAX
		fresh, err := newAggAcc(fn.Name, fn.IsStar)
		if err != nil {
			return err
		}
		switch {
		case fn.Over.Frame != nil:
			// Explicit ROWS frame: a fresh accumulator per row over
			// sorted[lo..k]. Frames are row-based, so peers do not share
			// values.
			f := fn.Over.Frame
			folded := 0
			for k, pos := range sorted {
				lo := 0
				if !f.Unbounded {
					lo = k - int(f.Preceding)
					if lo < 0 {
						lo = 0
					}
				}
				acc := fresh
				for j := lo; j <= k; j++ {
					acc.add(sorted[j], argAt)
				}
				if folded += k - lo + 1; folded >= 4096 {
					if err := ctx.Err(); err != nil {
						return err
					}
					folded = 0
				}
				set(pos, acc.value())
			}
		case len(fn.Over.OrderBy) == 0:
			// No ORDER BY: the whole partition is every row's frame.
			acc := fresh
			for _, pos := range sorted {
				acc.add(pos, argAt)
			}
			v := acc.value()
			for _, pos := range sorted {
				set(pos, v)
			}
		default:
			// Default frame with ORDER BY: running aggregate from the
			// partition start through the current row's peer group (RANGE
			// UNBOUNDED PRECEDING TO CURRENT ROW semantics — peers share).
			acc := fresh
			for s := 0; s < len(sorted); {
				e := ends[s]
				for k := s; k < e; k++ {
					acc.add(sorted[k], argAt)
				}
				v := acc.value()
				for k := s; k < e; k++ {
					set(sorted[k], v)
				}
				s = e
			}
		}
	}
	return nil
}

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
	var perm, ends []int
	if len(spec.PartitionBy) == 0 {
		perm, ends = iotaInts(n), []int{n}
	} else {
		keyCols, err := evalVecs(spec.PartitionBy, rel, sel)
		if err != nil {
			return table.Column{}, err
		}
		if perm, ends, err = partitionPerm(ctx, keyCols, n); err != nil {
			return table.Column{}, err
		}
	}
	orderBy := make([]Expr, len(spec.OrderBy))
	for k, o := range spec.OrderBy {
		orderBy[k] = o.Expr
	}
	keyCols, err := evalVecs(orderBy, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	sortSegment, peers := func([]int) {}, func(a, b int) bool { return true }
	if len(spec.OrderBy) > 0 {
		cmp, total := rowOrder(keyCols, spec.OrderBy)
		sortSegment = func(seg []int) { sortRows(seg, cmp, total) }
		peers = func(a, b int) bool { return cmp(a, b) == 0 }
	}
	var argAt func(int) table.Value // none for COUNT(*) and the ranking functions
	if !fn.IsStar && len(fn.Args) == 1 {
		argCol, err := evalVec(fn.Args[0], rel, sel)
		if err != nil {
			return table.Column{}, err
		}
		argAt = argCol.Value
	}
	out := nullColumn(kindOf(fn, rel), n) // every cell is set below
	lo := 0
	for _, hi := range ends {
		if err := ctx.Err(); err != nil {
			return table.Column{}, err
		}
		seg := perm[lo:hi]
		sortSegment(seg)
		if err := computeWindowValues(ctx, fn, seg, peerGroupEnds(seg, peers), argAt, out.Set); err != nil {
			return table.Column{}, err
		}
		lo = hi
	}
	return out, nil
}
