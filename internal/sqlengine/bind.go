package sqlengine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"datalab/internal/table"
)

// Parameter binding. A prepared statement's placeholders resolve through a
// per-execution binding slice ([]table.Value indexed by slot) carried in the
// execution's execArgs, so one cached plan serves concurrent executions with
// different arguments. bindAt is the single resolution point used by both
// evaluators and by the vectorized constant fast paths.

// execArgs is what one execution adds to its plan: the parameter bindings
// (nil without placeholders), the statement's LIMIT and OFFSET — its
// literals', or the values bound to its placeholders — and the rows each of
// its subqueries returned, by slot. A subquery executes with execArgs of its
// own over the same bindings.
type execArgs struct {
	binds         []table.Value
	limit, offset int // limit is -1 when absent
	subs          [][]table.Value
}

// bindAt resolves a placeholder against an execution's binding slice.
func bindAt(binds []table.Value, p *Param) (table.Value, error) {
	if p.Index < 0 || p.Index >= len(binds) {
		return table.Null(), errUnbound(p)
	}
	return binds[p.Index], nil
}

func errUnbound(p *Param) error {
	if p.Name != "" {
		return fmt.Errorf("sql: parameter :%s is not bound (execute with Prepared.Exec(ctx, args...) or Bind)", p.Name)
	}
	return fmt.Errorf("sql: parameter %d is not bound (execute with Prepared.Exec(ctx, args...) or Bind)", p.Index+1)
}

// bindValue converts one Go argument to the engine value its placeholder
// resolves to. nil binds SQL NULL; a table.Value passes through untouched.
func bindValue(arg any) (table.Value, error) {
	switch v := arg.(type) {
	case nil:
		return table.Null(), nil
	case table.Value:
		return v, nil
	case bool:
		return table.Bool(v), nil
	case int:
		return table.Int(int64(v)), nil
	case int8:
		return table.Int(int64(v)), nil
	case int16:
		return table.Int(int64(v)), nil
	case int32:
		return table.Int(int64(v)), nil
	case int64:
		return table.Int(v), nil
	case uint:
		return table.Int(int64(v)), nil
	case uint8:
		return table.Int(int64(v)), nil
	case uint16:
		return table.Int(int64(v)), nil
	case uint32:
		return table.Int(int64(v)), nil
	case uint64:
		if v > math.MaxInt64 {
			return table.Null(), fmt.Errorf("sql: uint64 argument %d overflows int64", v)
		}
		return table.Int(int64(v)), nil
	case float32:
		return table.Float(float64(v)), nil
	case float64:
		return table.Float(v), nil
	case string:
		return table.Str(v), nil
	case time.Time:
		return table.Time(v), nil
	default:
		return table.Null(), fmt.Errorf("sql: cannot bind %T as a parameter", arg)
	}
}

// bindArgs validates args against the statement's declared slots and
// converts them to the binding slice, erroring on count or kind mismatch.
func bindArgs(params []string, args []any) ([]table.Value, error) {
	if len(args) != len(params) {
		return nil, fmt.Errorf("sql: statement has %d parameter(s), got %d argument(s)", len(params), len(args))
	}
	if len(args) == 0 {
		return nil, nil
	}
	binds := make([]table.Value, len(args))
	for i, a := range args {
		v, err := bindValue(a)
		if err != nil {
			return nil, fmt.Errorf("sql: argument %d: %w", i+1, err)
		}
		binds[i] = v
	}
	return binds, nil
}

// bind starts an execution's arguments: the bindings, and LIMIT/OFFSET
// read from them where the statement has a placeholder there.
func (p *plan) bind(binds []table.Value) (*execArgs, error) {
	x := &execArgs{binds: binds, limit: p.stmt.Limit, offset: p.stmt.Offset}
	var err error
	if lp := p.stmt.LimitParam; lp != nil {
		if x.limit, err = bindLimitValue(binds, lp, "LIMIT"); err != nil {
			return nil, err
		}
	}
	if op := p.stmt.OffsetParam; op != nil {
		if x.offset, err = bindLimitValue(binds, op, "OFFSET"); err != nil {
			return nil, err
		}
	}
	return x, nil
}

func bindLimitValue(binds []table.Value, p *Param, clause string) (int, error) {
	v, err := bindAt(binds, p)
	if err != nil {
		return 0, err
	}
	if v.Kind != table.KindInt || v.I < 0 {
		return 0, fmt.Errorf("sql: %s requires a non-negative integer parameter, got %s", clause, v.AsString())
	}
	return int(v.I), nil
}

// Bound is a prepared statement with its arguments attached — the output
// of Prepared.Bind/BindNamed. It is safe for concurrent and repeated Exec.
type Bound struct {
	p     *Prepared
	binds []table.Value
}

// Exec executes the bound statement, honoring ctx cancellation.
func (b *Bound) Exec(ctx context.Context) (*Result, error) {
	return b.p.exec(ctx, b.binds)
}

// SQL returns the statement text the handle was prepared from.
func (b *Bound) SQL() string { return b.p.sql }

// Bind validates args (count and representability) against the statement's
// placeholders, in slot order, and returns an executable Bound handle.
func (p *Prepared) Bind(args ...any) (*Bound, error) {
	binds, err := bindArgs(p.params, args)
	if err != nil {
		return nil, err
	}
	return &Bound{p: p, binds: binds}, nil
}

// BindNamed binds :name placeholders by name. Every declared name must be
// present in args, every key in args must name a slot, and the statement
// must not mix in positional placeholders.
func (p *Prepared) BindNamed(args map[string]any) (*Bound, error) {
	binds := make([]table.Value, len(p.params))
	for i, name := range p.params {
		if name == "" {
			return nil, fmt.Errorf("sql: slot %d is positional; use Bind", i+1)
		}
		a, ok := args[name]
		if !ok {
			return nil, fmt.Errorf("sql: missing argument for :%s", name)
		}
		v, err := bindValue(a)
		if err != nil {
			return nil, fmt.Errorf("sql: argument :%s: %w", name, err)
		}
		binds[i] = v
	}
	for k := range args { // every slot is named, or the loop above refused
		if !slices.Contains(p.params, k) {
			return nil, fmt.Errorf("sql: argument :%s does not name a parameter", k)
		}
	}
	return &Bound{p: p, binds: binds}, nil
}
