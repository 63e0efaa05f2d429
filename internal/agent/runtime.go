// Package agent implements DataLab's LLM-based agent framework (§III): the
// concrete BI agents for data preparation, analysis, and visualization,
// the Runtime of shared services they draw on (LLM calls, data tools,
// retrievers), and the proxy-side planner that maps user queries to FSM
// execution plans.
package agent

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"datalab/internal/dsl"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

// Runtime bundles the shared services every agent draws on: the simulated
// LLM, the warehouse catalog, and the knowledge stack. One Runtime is
// shared across an agent fleet working one user session.
type Runtime struct {
	Client  *llm.Client
	Catalog *sqlengine.Catalog
	Graph   *knowledge.Graph
	// Retriever is nil when no knowledge graph is configured; agents then,
	// and for any table the graph holds no column of, fall back to data
	// profiling.
	Retriever  *knowledge.Retriever
	Translator *knowledge.Translator
	Profiler   *knowledge.Profiler
	// Ambiguity rates how cryptic the active schema is (0 research-clean,
	// ~0.7 enterprise); it feeds the simulated error model.
	Ambiguity float64
	// KnowledgeLevel mirrors what the graph was loaded with.
	KnowledgeLevel knowledge.Level
	// Structured reports the communication mode (for context quality).
	Structured bool

	cacheMu      sync.Mutex
	profileCache map[string]profiled
}

// profiled is a profiling bundle and the snapshot view it was computed
// from; a different view under the same name means the profile is stale.
type profiled struct {
	tbl    *table.Table
	bundle *knowledge.Bundle
}

// NewRuntime wires a runtime around a client and catalog.
func NewRuntime(client *llm.Client, catalog *sqlengine.Catalog) *Runtime {
	rt := &Runtime{
		Client:       client,
		Catalog:      catalog,
		Translator:   &knowledge.Translator{Client: client},
		Profiler:     knowledge.NewProfiler(client),
		Structured:   true,
		profileCache: map[string]profiled{},
	}
	return rt
}

// WithGraph attaches a knowledge graph and retriever.
func (rt *Runtime) WithGraph(g *knowledge.Graph, level knowledge.Level) *Runtime {
	rt.Graph = g
	rt.KnowledgeLevel = level
	rt.Retriever = knowledge.NewRetriever(g, rt.Client)
	return rt
}

// Quality assembles the context-quality features agents pass to the
// simulated LLM, given how completely the schema was linked for the task.
func (rt *Runtime) Quality(schemaLinked float64, iterations int) llm.Quality {
	return llm.Quality{
		SchemaLinked:   schemaLinked,
		KnowledgeLevel: levelValue(rt.KnowledgeLevel, rt.Graph != nil),
		Ambiguity:      rt.Ambiguity,
		Structured:     rt.Structured,
		Iterations:     iterations,
	}
}

func levelValue(l knowledge.Level, hasGraph bool) float64 {
	if !hasGraph {
		return 0.5 // profiling fallback: partial understanding
	}
	switch l {
	case knowledge.LevelPartial:
		return 0.55
	case knowledge.LevelFull:
		return 1
	default:
		return 0
	}
}

// Candidates resolves the linked-schema candidates for a query against a
// table: through the knowledge graph when it holds the table's columns,
// else through data profiling of the physical table (§IV-C's fallback for
// tables nobody has learned).
func (rt *Runtime) Candidates(query, tableName string) ([]knowledge.CandidateColumn, []knowledge.ValueHint, error) {
	return rt.candidates(nil, query, tableName)
}

// candidates is Candidates with the graph's retrieval read through memo,
// which may be nil.
func (rt *Runtime) candidates(memo retrievals, query, tableName string) ([]knowledge.CandidateColumn, []knowledge.ValueHint, error) {
	t, ok := rt.Catalog.Table(tableName)
	if !ok {
		return nil, nil, fmt.Errorf("agent: unknown table %q", tableName)
	}
	if rt.Retriever != nil && rt.learned(tableName, t) {
		var cands []knowledge.CandidateColumn
		for _, h := range memo.retrieve(rt.Retriever, query, tableName) {
			cands = append(cands, knowledge.CandidateFromNode(h.Node))
		}
		return cands, rt.Graph.ValueHints(), nil
	}
	key := strings.ToLower(tableName)
	rt.cacheMu.Lock()
	c := rt.profileCache[key]
	rt.cacheMu.Unlock()
	if c.tbl != t {
		c = profiled{tbl: t, bundle: rt.Profiler.Profile(t)}
		rt.cacheMu.Lock()
		rt.profileCache[key] = c
		rt.cacheMu.Unlock()
	}
	return c.bundle.Candidates(), c.bundle.ValueHints(), nil
}

// retrievals is one Ask's memo of the graph's column retrieval, keyed by
// the rewritten question and the table: a retry, or a second agent, that
// asks the same question of the same table reads the first retrieval
// instead of running it again. The result is a pure function of the
// graph, and one Ask reads one Runtime, so one graph; Planner.Plan makes
// the memo and hands it to the agents it builds, and it dies with them.
// The proxy runs those agents one at a time, so it needs no lock.
type retrievals map[retrieval][]knowledge.Scored

type retrieval struct{ query, table string }

// retrievedColumns is the retrieval the memo holds; tests count its calls
// through it.
var retrievedColumns = func(r *knowledge.Retriever, query, tableName string) []knowledge.Scored {
	return r.RetrieveColumnsScoped(query, tableName, 10)
}

// retrieve returns the table's ten best columns for query, retrieving
// them unless m holds them; a nil memo retrieves every time.
func (m retrievals) retrieve(r *knowledge.Retriever, query, tableName string) []knowledge.Scored {
	if m == nil {
		return retrievedColumns(r, query, tableName)
	}
	k := retrieval{query, tableName}
	hits, ok := m[k]
	if !ok {
		hits = retrievedColumns(r, query, tableName)
		m[k] = hits
	}
	return hits
}

// learned reports whether the knowledge graph holds a column of t.
func (rt *Runtime) learned(tableName string, t *table.Table) bool {
	for _, c := range t.Columns {
		if _, ok := rt.Graph.Node(knowledge.ColumnID(tableName, c.Name)); ok {
			return true
		}
	}
	return false
}

// translateDSL runs query rewrite + retrieval + DSL translation, the
// shared front half of most agent pipelines, for the agent's table at its
// skill. key must identify the task instance. The rewrite runs (and is
// charged) on every call; the retrieval is read through the agent's memo.
// Returns the spec and whether it is faithful.
func (a *BIAgent) translateDSL(query, key string, iterations int) (*dsl.Spec, bool, error) {
	rt := a.rt
	rewritten := query
	if rt.Retriever != nil {
		rewritten = rt.Retriever.Rewrite(query, nil)
	}
	cands, hints, err := rt.candidates(a.memo, rewritten, a.table)
	if err != nil {
		return nil, false, err
	}
	linked := 1.0
	if len(cands) == 0 {
		linked = 0
	}
	q := rt.Quality(linked, iterations)
	// Translation consumes the user query and knowledge context, not
	// inter-agent messages, so the communication format does not apply.
	q.Structured = true
	spec, faithful := rt.Translator.Translate(knowledge.TranslateRequest{
		Query:      rewritten,
		Table:      a.table,
		Candidates: cands,
		ValueHints: hints,
		Key:        key,
		Skill:      a.skill,
		Quality:    q,
	})
	return spec, faithful, nil
}

// ExecuteSQL compiles and runs a DSL spec, returning the SQL text and the
// result cursor, unread.
func (rt *Runtime) ExecuteSQL(spec *dsl.Spec) (string, *sqlengine.Result, error) {
	sql, err := spec.ToSQL()
	if err != nil {
		return "", nil, err
	}
	res, err := rt.Catalog.QueryCtx(context.TODO(), sql)
	return sql, res, err
}
