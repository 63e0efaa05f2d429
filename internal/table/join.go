package table

// JoinKind selects the join semantics.
type JoinKind uint8

const (
	// JoinInner keeps only matched (left, right) row pairs.
	JoinInner JoinKind = iota
	// JoinLeft keeps every left row; unmatched left rows pad the right
	// side with NULLs.
	JoinLeft
	// JoinRight keeps every right row; unmatched right rows pad the left
	// side with NULLs. Output rows follow right-row order.
	JoinRight
	// JoinFull keeps every row of both sides: the inner matches in
	// left-probe order, then the unmatched right rows (left side padded)
	// appended in ascending right-row order.
	JoinFull
)

// String returns the SQL spelling of the join kind.
func (k JoinKind) String() string {
	switch k {
	case JoinLeft:
		return "LEFT"
	case JoinRight:
		return "RIGHT"
	case JoinFull:
		return "FULL"
	default:
		return "INNER"
	}
}

// JoinPairs is a join's match list: one entry per output row, kept as
// parallel per-side row-index lists plus explicit null masks for
// outer-join padding — never -1 sentinel indices. A nil mask means that
// side can never be padded by the join's kind (and its index list is a
// candidate for span-form gathering when strictly ascending). The SQL
// engine's parallel join pipeline builds one per probe chunk.
type JoinPairs struct {
	Lidx  []int
	Ridx  []int
	Lnull []bool // non-nil ⇒ RIGHT/FULL padding may blank left cells
	Rnull []bool // non-nil ⇒ LEFT/FULL padding may blank right cells
}

// NewJoinPairs allocates the pair list for a join kind, with the null
// masks that kind can need (non-nil but empty, so appends stay aligned).
func NewJoinPairs(kind JoinKind) *JoinPairs {
	p := &JoinPairs{}
	if kind == JoinRight || kind == JoinFull {
		p.Lnull = []bool{}
	}
	if kind == JoinLeft || kind == JoinFull {
		p.Rnull = []bool{}
	}
	return p
}

// Len returns the number of output rows.
func (p *JoinPairs) Len() int { return len(p.Lidx) }

// Match appends a matched (left row, right row) pair.
func (p *JoinPairs) Match(l, r int) {
	p.Lidx = append(p.Lidx, l)
	p.Ridx = append(p.Ridx, r)
	if p.Lnull != nil {
		p.Lnull = append(p.Lnull, false)
	}
	if p.Rnull != nil {
		p.Rnull = append(p.Rnull, false)
	}
}

// PadRight appends left row l with a NULL-padded right side (LEFT/FULL).
func (p *JoinPairs) PadRight(l int) {
	p.Lidx = append(p.Lidx, l)
	p.Ridx = append(p.Ridx, 0)
	if p.Lnull != nil {
		p.Lnull = append(p.Lnull, false)
	}
	p.Rnull = append(p.Rnull, true)
}

// PadLeft appends right row r with a NULL-padded left side (RIGHT/FULL).
func (p *JoinPairs) PadLeft(r int) {
	p.Lidx = append(p.Lidx, 0)
	p.Ridx = append(p.Ridx, r)
	p.Lnull = append(p.Lnull, true)
	if p.Rnull != nil {
		p.Rnull = append(p.Rnull, false)
	}
}

// Concat appends q's pairs to p (chunk merge; concatenating chunk-local
// lists in chunk order reproduces a serial probe's output order).
func (p *JoinPairs) Concat(q *JoinPairs) {
	if q == nil {
		return
	}
	p.Lidx = append(p.Lidx, q.Lidx...)
	p.Ridx = append(p.Ridx, q.Ridx...)
	if p.Lnull != nil {
		p.Lnull = append(p.Lnull, q.Lnull...)
	}
	if p.Rnull != nil {
		p.Rnull = append(p.Rnull, q.Rnull...)
	}
}

// SweepUnmatchedRight appends, for a FULL join, the right-side rows no
// surviving pair matched — left-padded, in ascending row order. This is
// the final step that defines FULL OUTER output order.
func (p *JoinPairs) SweepUnmatchedRight(nright int) {
	matched := make([]bool, nright)
	for i, r := range p.Ridx {
		if p.Rnull == nil || !p.Rnull[i] {
			matched[r] = true
		}
	}
	for r := 0; r < nright; r++ {
		if !matched[r] {
			p.PadLeft(r)
		}
	}
}

// NewHashProbe builds a hash index over the key columns of the right side
// and returns a probe from a left-row index to the matching right rows.
// lcols and rcols pair up positionally (lcols[i] = rcols[i]); a NULL in any
// key column never matches. Single typed int and string keys use typed
// maps; composite or mixed keys hash concatenated canonical Value keys, so
// numeric kinds unify (an int column still joins against a float column).
func NewHashProbe(lcols, rcols []*Column) func(leftRow int) []int {
	if len(lcols) == 1 {
		left, right := lcols[0], rcols[0]
		if lInts, lNulls, ok := left.Ints(); ok {
			if rInts, rNulls, ok2 := right.Ints(); ok2 {
				index := make(map[int64][]int, len(rInts))
				for r, v := range rInts {
					if !rNulls[r] {
						index[v] = append(index[v], r)
					}
				}
				return func(l int) []int {
					if lNulls[l] {
						return nil
					}
					return index[lInts[l]]
				}
			}
		}
		if lStrs, lNulls, ok := left.Strings(); ok {
			if rStrs, rNulls, ok2 := right.Strings(); ok2 {
				index := make(map[string][]int, len(rStrs))
				for r, v := range rStrs {
					if !rNulls[r] {
						index[v] = append(index[v], r)
					}
				}
				return func(l int) []int {
					if lNulls[l] {
						return nil
					}
					return index[lStrs[l]]
				}
			}
		}
	}
	keyAt := func(cols []*Column, row int) (string, bool) {
		var kb []byte
		for _, c := range cols {
			v := c.Value(row)
			if v.IsNull() {
				return "", false
			}
			kb = AppendKeyPart(kb, v)
		}
		return string(kb), true
	}
	n := 0
	if len(rcols) > 0 {
		n = rcols[0].Len()
	}
	index := make(map[string][]int, n)
	for r := 0; r < n; r++ {
		if k, ok := keyAt(rcols, r); ok {
			index[k] = append(index[k], r)
		}
	}
	return func(l int) []int {
		k, ok := keyAt(lcols, l)
		if !ok {
			return nil
		}
		return index[k]
	}
}
