package datalab

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"datalab/internal/agent"
	"datalab/internal/comm"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
	"datalab/internal/wal"
)

// Option configures a Platform.
type Option func(*config)

type config struct {
	model string
	seed  string
}

// WithModel selects the underlying model profile: "gpt-4" (default),
// "qwen-2.5", or "llama-3.1".
func WithModel(name string) Option {
	return func(c *config) { c.model = name }
}

// WithSeed fixes the deterministic seed for the simulated model.
func WithSeed(seed string) Option {
	return func(c *config) { c.seed = seed }
}

// Platform is one DataLab deployment: catalog + knowledge + agents.
//
// A Platform is safe for concurrent use: Ask and QueryCtx may be called from
// many goroutines at once (the catalog serializes registrations against
// readers, and the SQL engine runs scan/aggregate partitions on a bounded
// worker pool shared across queries). LearnKnowledge and AddGlossary are
// safe mid-traffic too: knowledge updates are copy-on-write — each call
// clones the knowledge graph (a map copy that writes nothing to the graph
// it clones), mutates the clone, and publishes it with a new runtime under
// the platform mutex, while an Ask already in flight keeps reading the
// snapshot its runtime captured. A published graph is never written again.
type Platform struct {
	client  *llm.Client
	catalog *sqlengine.Catalog

	// wal and recovered are set only by OpenDurable: the write-ahead
	// log backing the catalog, and what boot-time recovery rebuilt.
	wal       *wal.Manager
	recovered *wal.Recovered

	mu sync.RWMutex // guards rt, whose Graph is the published knowledge snapshot
	rt *agent.Runtime
}

// New creates a platform.
func New(opts ...Option) (*Platform, error) {
	cfg := config{model: "gpt-4", seed: "datalab"}
	for _, o := range opts {
		o(&cfg)
	}
	profile, err := llm.ProfileByName(cfg.model)
	if err != nil {
		return nil, err
	}
	client := llm.NewClient(profile, cfg.seed)
	catalog := sqlengine.NewCatalog()
	return &Platform{
		client:  client,
		catalog: catalog,
		rt:      agent.NewRuntime(client, catalog),
	}, nil
}

// MustNew is New that panics on error, for examples and tests.
func MustNew(opts ...Option) *Platform {
	p, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// LoadCSV registers a CSV dataset under the given table name.
func (p *Platform) LoadCSV(name string, r io.Reader) error {
	t, err := table.ReadCSV(name, r)
	if err != nil {
		return err
	}
	return p.catalog.RegisterErr(t)
}

// LoadRecords registers an in-memory dataset: a header row plus string
// records, typed the way LoadCSV types the same cells.
func (p *Platform) LoadRecords(name string, columns []string, rows [][]string) error {
	t, err := table.FromRecords(name, columns, rows)
	if err != nil {
		return err
	}
	return p.catalog.RegisterErr(t)
}

// AppendRecords appends string records to an already-registered table and
// publishes one new snapshot covering all of them. Cells are type-inferred
// and then coerced to the table's column kinds. Queries already running
// keep reading the snapshot they started on; queries issued after
// AppendRecords returns see every appended row.
func (p *Platform) AppendRecords(name string, rows [][]string) error {
	in, err := p.Ingest(name)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := in.Append(row...); err != nil {
			return err
		}
	}
	_, err = in.PublishErr()
	return err
}

// Ingestor is a streaming append handle for one registered table. Appended
// rows are batched into a pending chunk that no query can observe until
// PublishErr atomically swaps in a snapshot that includes them — so a burst
// of appends becomes one visible version, not many. An Ingestor is safe
// for concurrent use with queries; concurrent Appends on the same table
// serialize on the table's appender.
type Ingestor struct {
	app *table.Appender
}

// Ingest returns a streaming append handle for a registered table.
func (p *Platform) Ingest(name string) (*Ingestor, error) {
	app, ok := p.catalog.Appender(name)
	if !ok {
		return nil, fmt.Errorf("datalab: unknown table %q", name)
	}
	return &Ingestor{app: app}, nil
}

// Append stages one row from string cells; types are inferred per cell and
// coerced to the table's schema. The row is invisible until PublishErr.
func (in *Ingestor) Append(cells ...string) error {
	vals := make([]table.Value, len(in.app.Kinds()))
	for c := range vals {
		if c < len(cells) {
			vals[c] = table.Infer(cells[c])
		}
	}
	return in.app.Append(vals)
}

// Pending reports how many staged rows await PublishErr.
func (in *Ingestor) Pending() int { return in.app.Pending() }

// PublishErr seals the staged rows into a new immutable chunk and
// atomically publishes the snapshot that includes them, returning the
// total row count now visible to new queries. On a durable platform the
// staged chunk is journaled and (under the "always" policy) fsynced before
// any query can observe it, and a log failure is returned with the rows
// kept staged and invisible rather than half-applied.
func (in *Ingestor) PublishErr() (int, error) {
	s, err := in.app.PublishErr()
	return s.NumRows(), err
}

// Tables lists registered table names.
func (p *Platform) Tables() []string { return p.catalog.TableNames() }

// ColumnSchema describes one column of an enterprise table.
type ColumnSchema struct {
	Name    string
	Type    string // bigint, double, string, date, ...
	Comment string
}

// Script is one historical data-processing script ("sql" or "python").
type Script struct {
	ID       string
	Language string
	Text     string
}

// Glossary is one enterprise jargon entry.
type Glossary struct {
	Term         string
	Definition   string
	Aliases      []string
	MapsToColumn string
	MapsToTable  string
}

// LearnKnowledge runs the Domain Knowledge Incorporation pipeline
// (Algorithm 1) over a table's schema and script history, loading the
// generated knowledge into the platform's graph. Call once per table;
// glossaries may be added with AddGlossary.
func (p *Platform) LearnKnowledge(database, tableName string, columns []ColumnSchema, scripts []Script) error {
	schema := knowledge.TableSchema{Database: database, Name: tableName}
	for _, c := range columns {
		schema.Columns = append(schema.Columns, knowledge.ColumnSchema{
			Name: c.Name, Type: c.Type, Comment: c.Comment,
		})
	}
	var hist []knowledge.Script
	for _, s := range scripts {
		hist = append(hist, knowledge.Script{
			ID:       s.ID,
			Language: knowledge.ScriptLanguage(strings.ToLower(s.Language)),
			Text:     s.Text,
		})
	}
	gen := knowledge.NewGenerator(p.client)
	bundle, err := gen.Generate(schema, hist, nil)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	graph := p.cloneGraphLocked()
	graph.AddBundle(bundle, knowledge.LevelFull)
	p.swapGraphLocked(graph)
	p.rt.Ambiguity = 0.3
	return nil
}

// AddGlossary registers enterprise jargon in the knowledge graph.
func (p *Platform) AddGlossary(entries ...Glossary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	graph := p.cloneGraphLocked()
	for _, g := range entries {
		graph.AddJargon(knowledge.JargonEntry{
			Term:         g.Term,
			Definition:   g.Definition,
			Aliases:      g.Aliases,
			MapsToColumn: g.MapsToColumn,
			MapsToTable:  g.MapsToTable,
		})
	}
	p.swapGraphLocked(graph)
}

// cloneGraphLocked returns a private copy of the current knowledge graph
// for a writer to mutate. Knowledge updates are copy-on-write: an Ask in
// flight snapshots p.rt (and through it the graph) under RLock and keeps
// reading that graph, which nothing writes once it is published —
// Graph.Clone only reads it — while the writer mutates only its clone and
// then publishes it with swapGraphLocked. Callers hold p.mu.
func (p *Platform) cloneGraphLocked() *knowledge.Graph {
	if p.rt.Graph == nil {
		return knowledge.NewGraph()
	}
	return p.rt.Graph.Clone()
}

// swapGraphLocked publishes a new graph snapshot and the runtime built
// over it, carrying forward the previous runtime's ambiguity setting
// (LearnKnowledge raises it separately). Callers hold p.mu.
func (p *Platform) swapGraphLocked(graph *knowledge.Graph) {
	rt := agent.NewRuntime(p.client, p.catalog).WithGraph(graph, knowledge.LevelFull)
	rt.Ambiguity = p.rt.Ambiguity
	p.rt = rt
}

// Answer is the result of one NL query: whatever the plan's agents
// produced, in consumable form.
type Answer struct {
	// SQL is the executed query (empty if no SQL agent ran).
	SQL string
	// Result is the typed, batch-iterable columnar result of SQL — the
	// primary way to consume the result set: the SQL agent's one execution
	// of the statement, unread. It is nil when no SQL agent ran.
	Result *Result
	// Err is always nil on an Answer that Ask returned: the statement has
	// already executed by then, and a statement that fails to execute fails
	// the SQL agent's attempt, so it surfaces as Ask's error once the
	// retry budget is spent. The field stays for callers that check it.
	Err error
	// Columns carries the SQL result's column names.
	Columns []string
	// ChartJSON is the Vega-Lite-style chart spec, when a chart was asked.
	ChartJSON string
	// Insights carries analysis-agent findings (anomalies, associations,
	// forecasts) as prose.
	Insights []string
	// AgentTrace lists the agents that ran, in execution order.
	AgentTrace []string
}

// Ask answers a natural-language query against a registered table by
// planning a multi-agent execution (§V) and running it through the proxy.
func (p *Platform) Ask(query, tableName string) (*Answer, error) {
	if _, ok := p.catalog.Table(tableName); !ok {
		return nil, fmt.Errorf("datalab: unknown table %q", tableName)
	}
	p.mu.RLock()
	rt := p.rt
	p.mu.RUnlock()
	planner := agent.NewPlanner(rt)
	plan, agents := planner.Plan(query, tableName)
	proxy := comm.NewProxy(comm.DefaultProxyConfig())
	units, _, err := proxy.Run(plan, agents, query)
	if err != nil {
		return nil, err
	}
	ans := &Answer{}
	for _, u := range units {
		ans.AgentTrace = append(ans.AgentTrace, u.Role)
		switch u.Kind {
		case comm.KindSQL:
			up := u.Payload.(agent.SQLPayload)
			ans.SQL, ans.Result, ans.Columns = up.SQL, up.Result, up.Result.Columns()
		case comm.KindChart:
			ans.ChartJSON = u.Content
		case comm.KindText:
			ans.Insights = append(ans.Insights, u.Content)
		}
	}
	return ans, nil
}

// QueryCtx executes raw SQL against the catalog (the SQL-cell path) and
// returns a typed, batch-iterable Result. The text is fingerprinted
// first — literals are extracted and the plan cache is keyed by the
// resulting template — so structurally identical queries that differ only
// in their literal values parse once and share one cached plan. ctx
// cancels mid-scan between worker-pool chunks.
func (p *Platform) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	return p.catalog.QueryCtx(ctx, sql)
}

// Prepare parses sql once and returns a reusable statement handle; Exec
// never re-parses. The text may declare `?` or `:name` placeholders bound
// per execution (see Stmt). Table names bind at execute time, so a
// prepared statement observes later LoadCSV/LoadRecords registrations.
func (p *Platform) Prepare(sql string) (*Stmt, error) {
	return p.catalog.Prepare(sql)
}

// PlanCacheStats snapshots the catalog's plan-cache counters — hit/miss
// accounting, evictions, and how many lookups went through the query
// fingerprinter. A hit rate near 1.0 on steady-state traffic means the
// workload's templates fit the cache and parsing has been amortized away.
func (p *Platform) PlanCacheStats() PlanCacheStats {
	return p.catalog.PlanCacheStats()
}

// TokenUsage reports the platform's accumulated simulated token spend.
func (p *Platform) TokenUsage() (prompt, completion, calls int) {
	u := p.client.Usage()
	return u.PromptTokens, u.CompletionTokens, u.Calls
}
