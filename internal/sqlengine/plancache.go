package sqlengine

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"datalab/internal/table"
)

// DefaultPlanCacheSize is the number of distinct plan-cache keys a catalog
// retains. Keys are parameter templates for fingerprinted Query/QueryCtx
// texts and exact SQL texts otherwise. A resolved plan is never written
// after it is cached, so one *plan is shared by every concurrent executor
// of the same template.
const DefaultPlanCacheSize = 256

// planCache is a mutex-guarded LRU from plan key to resolved plan. Parse
// and resolution errors are not cached: failing texts are rare, unbounded
// in variety, and re-planning them keeps error messages exact.
type planCache struct {
	mu            sync.Mutex
	cap           int
	ll            *list.List // front = most recently used
	bySQL         map[string]*list.Element
	hits, misses  int64
	evictions     int64
	invalidations int64        // full clears on schema-changing Register
	fingerprints  atomic.Int64 // Query texts normalized to a template
}

type planEntry struct {
	sql  string
	plan *plan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, ll: list.New(), bySQL: make(map[string]*list.Element, capacity)}
}

func (pc *planCache) get(sql string) (*plan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.bySQL[sql]; ok {
		pc.ll.MoveToFront(el)
		pc.hits++
		return el.Value.(*planEntry).plan, true
	}
	pc.misses++
	return nil, false
}

// put installs p for sql and returns the plan now cached there: p, unless
// another planner of the same text got in first — then that plan, which
// replaced the same stale one (nil for a miss) and is as good.
func (pc *planCache) put(sql string, p, stale *plan) *plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.bySQL[sql]; ok {
		pc.ll.MoveToFront(el)
		ent := el.Value.(*planEntry)
		if ent.plan == stale {
			ent.plan = p
		}
		return ent.plan
	}
	pc.bySQL[sql] = pc.ll.PushFront(&planEntry{sql: sql, plan: p})
	for pc.ll.Len() > pc.cap {
		oldest := pc.ll.Back()
		pc.ll.Remove(oldest)
		delete(pc.bySQL, oldest.Value.(*planEntry).sql)
		pc.evictions++
	}
	return p
}

// invalidate clears every cached plan. It runs when a table is
// re-registered with a different schema. Correctness does not hang on it —
// an execution re-resolves any plan whose appenders are no longer the
// registered ones (Catalog.current) — but it drops plans that pin the old
// table's storage and makes the schema change observable in stats.
func (pc *planCache) invalidate() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.ll.Init()
	pc.bySQL = make(map[string]*list.Element, pc.cap)
	pc.invalidations++
}

// PlanCacheStats is a point-in-time snapshot of a catalog's plan-cache
// counters, for metrics and tests.
type PlanCacheStats struct {
	Hits          int64 // lookups that found a cached plan
	Misses        int64 // lookups that fell through to the parser
	Evictions     int64 // LRU entries dropped after the cache filled
	Invalidations int64 // full clears caused by schema-changing Register
	Fingerprints  int64 // Query/QueryCtx texts normalized to a parameter template
	Size          int   // current entry count
	Cap           int   // maximum entry count
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (pc *planCache) statsSnapshot() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Hits:          pc.hits,
		Misses:        pc.misses,
		Evictions:     pc.evictions,
		Invalidations: pc.invalidations,
		Fingerprints:  pc.fingerprints.Load(),
		Size:          pc.ll.Len(),
		Cap:           pc.cap,
	}
}

// planText returns the resolved plan for a statement text: the cached one
// while its tables are still the registered ones, else the text parsed and
// resolved now, cached in its place. params >= 0 asks for a template with
// exactly that many placeholders: a text that is not one comes back
// ok=false with no error and nothing cached. The plan is shared and
// read-only.
func (c *Catalog) planText(sql string, params int) (p *plan, ok bool, err error) {
	cached, hit := c.plans.get(sql)
	if hit && c.current(cached) {
		return cached, params < 0 || cached.stmt.NumParams() == params, nil
	}
	stmt, err := Parse(sql)
	if params >= 0 && (err != nil || stmt.NumParams() != params) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if p, err = c.resolve(stmt); err != nil {
		return nil, true, err
	}
	return c.plans.put(sql, p, cached), true, nil
}

// planQuery is the Query/QueryCtx planning front end: the text is
// fingerprinted to a parameter template (see Fingerprint) so literal-
// varying traffic shares one cache entry, and the extracted values come
// back as the execution's bindings. Texts that carry placeholders already,
// fail to normalize, or extract nothing plan by exact text with no
// bindings.
func (c *Catalog) planQuery(sql string) (*plan, []table.Value, error) {
	tmpl, vals, ok := Fingerprint(sql)
	if ok && len(vals) > 0 {
		c.plans.fingerprints.Add(1)
		if p, usable, err := c.planText(tmpl, len(vals)); usable {
			return p, vals, err
		}
		// The template disagrees with the extraction: a literal sat in a
		// position the grammar does not parameterize (e.g. a string
		// select-item alias). Plan the raw text instead — semantics and
		// error messages stay exact.
	}
	p, _, err := c.planText(sql, -1)
	return p, nil, err
}

// PlanCacheStats reports the catalog's plan-cache counters and current
// entry count.
func (c *Catalog) PlanCacheStats() PlanCacheStats {
	return c.plans.statsSnapshot()
}

// Prepared is a statement planned once and executable many times: the
// prepared-statement handle behind Platform.Prepare. It is safe for
// concurrent Exec from many goroutines.
//
// Statements may declare placeholders (? positional, :name named) wherever
// a literal is legal, including LIMIT/OFFSET; Exec binds args to them in
// slot order on every call. Hot loops that format literals into the SQL
// text re-parse on every iteration — prepare a placeholder template once
// and bind instead.
type Prepared struct {
	cat    *Catalog
	sql    string
	params []string // slot names in slot order; "" for a positional ?
	// cur is the plan the last execution used; nil until the statement's
	// tables exist. It is replaced, never written, when a table it names is
	// re-registered.
	cur atomic.Pointer[plan]
}

// Prepare parses sql once and returns a reusable handle bound to the
// catalog. Re-executing the handle touches neither the parser nor the
// resolver until one of its tables is re-registered. Only a text that does
// not parse fails here: names bind at execute, so an unknown table or
// column is the first Exec's error.
func (c *Catalog) Prepare(sql string) (*Prepared, error) {
	p := &Prepared{cat: c, sql: sql}
	if pl, _, err := c.planText(sql, -1); err == nil {
		p.params = pl.stmt.Params
		p.cur.Store(pl)
		return p, nil
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	p.params = stmt.Params
	return p, nil
}

// plan returns the handle's plan, resolved again (through the cache) when
// the catalog no longer maps its table names to the appenders it read.
func (p *Prepared) plan() (*plan, error) {
	if pl := p.cur.Load(); pl != nil && p.cat.current(pl) {
		return pl, nil
	}
	pl, _, err := p.cat.planText(p.sql, -1)
	if err != nil {
		return nil, err
	}
	p.cur.Store(pl)
	return pl, nil
}

// SQL returns the statement text the handle was prepared from.
func (p *Prepared) SQL() string { return p.sql }

// NumParams reports the number of binding slots the statement declares.
func (p *Prepared) NumParams() int { return len(p.params) }

// ParamNames returns the statement's slot names in slot order; positional
// slots are "".
func (p *Prepared) ParamNames() []string { return append([]string(nil), p.params...) }

// Exec executes the prepared statement, honoring ctx cancellation, and
// returns a typed Result. args bind the statement's placeholders in slot
// order (none for a statement without placeholders) and are validated
// before execution. Each call executes against the catalog's current
// table registrations (names bind at execute, not at prepare).
func (p *Prepared) Exec(ctx context.Context, args ...any) (*Result, error) {
	binds, err := bindArgs(p.params, args)
	if err != nil {
		return nil, err
	}
	return p.exec(ctx, binds)
}

func (p *Prepared) exec(ctx context.Context, binds []table.Value) (*Result, error) {
	pl, err := p.plan()
	if err != nil {
		return nil, err
	}
	return executeResultBound(ctx, pl, binds)
}
