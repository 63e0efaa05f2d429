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
	// Retriever is nil when no knowledge graph is configured; agents then
	// fall back to data profiling.
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
	// Distraction rates irrelevant-context volume reaching agents.
	Distraction float64

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
		Distraction:    rt.Distraction,
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
// table: through the knowledge graph when present, else through data
// profiling of the physical table.
func (rt *Runtime) Candidates(query, tableName string) ([]knowledge.CandidateColumn, []knowledge.ValueHint, error) {
	if rt.Retriever != nil {
		var cands []knowledge.CandidateColumn
		for _, h := range rt.Retriever.RetrieveColumnsScoped(query, tableName, 10) {
			cands = append(cands, knowledge.CandidateFromNode(h.Node))
		}
		return cands, rt.Graph.ValueHints(), nil
	}
	t, ok := rt.Catalog.Table(tableName)
	if !ok {
		return nil, nil, fmt.Errorf("agent: unknown table %q", tableName)
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

// TranslateDSL runs query rewrite + retrieval + DSL translation, the
// shared front half of most agent pipelines. key must identify the task
// instance. Returns the spec, whether it is faithful, and the linked
// fraction used in the quality model.
func (rt *Runtime) TranslateDSL(query, tableName, key string, skill float64, iterations int) (*dsl.Spec, bool, error) {
	rewritten := query
	if rt.Retriever != nil {
		rewritten = rt.Retriever.Rewrite(query, nil)
	}
	cands, hints, err := rt.Candidates(rewritten, tableName)
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
		Table:      tableName,
		Candidates: cands,
		ValueHints: hints,
		Key:        key,
		Skill:      skill,
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
