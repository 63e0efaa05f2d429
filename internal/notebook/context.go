package notebook

import (
	"sort"
	"strings"

	"datalab/internal/embed"
	"datalab/internal/textutil"
)

// TaskType classifies a user query for context pruning.
type TaskType string

// Task types the pruning table covers.
const (
	TaskNL2SQL     TaskType = "nl2sql"
	TaskNL2DSCode  TaskType = "nl2dscode"
	TaskNL2VIS     TaskType = "nl2vis"
	TaskNL2Insight TaskType = "nl2insight"
	TaskUnknown    TaskType = "unknown"
)

// relevantCellTypes maps task types to the cell types that can carry
// useful context for them (§VI: "in NL2DSCode tasks, only Python cells
// are considered").
var relevantCellTypes = map[TaskType][]CellType{
	TaskNL2SQL:     {CellSQL},
	TaskNL2DSCode:  {CellPython, CellPySpark},
	TaskNL2VIS:     {CellChart, CellSQL, CellPython, CellMarkdown},
	TaskNL2Insight: {CellSQL, CellPython, CellPySpark, CellChart, CellMarkdown},
	TaskUnknown:    {CellSQL, CellPython, CellPySpark, CellChart, CellMarkdown},
}

// ClassifyTask infers the task type from query vocabulary — the simulated
// counterpart of the paper's LLM task-type prediction.
func ClassifyTask(query string) TaskType {
	q := strings.ToLower(query)
	switch {
	case textutil.ContainsAny(q, "chart", "plot", "visuali", "graph", "pie", "bar ", "trend line", "draw"):
		return TaskNL2VIS
	case textutil.ContainsAny(q, "sql", "query the", "select from", "table join"):
		return TaskNL2SQL
	case textutil.ContainsAny(q, "insight", "analyze", "analysis", "why", "anomal", "forecast", "correlat"):
		return TaskNL2Insight
	case textutil.ContainsAny(q, "code", "python", "pandas", "dataframe", "clean", "impute", "normalize"):
		return TaskNL2DSCode
	default:
		return TaskUnknown
	}
}

// Context is the assembled context for one query: the minimum set of
// relevant cells.
type Context struct {
	Cells []*Cell
}

// Tokens returns the estimated token footprint of the context — the
// quantity Table IV's Token Cost per Query measures.
func (c Context) Tokens() int {
	n := 0
	for _, cell := range c.Cells {
		n += textutil.CountTokens(cell.Source)
	}
	return n
}

// markdownTopK bounds similarity-selected Markdown cells.
const markdownTopK = 2

// Manager resolves query contexts over a notebook. UseDAG switches between
// the ablation arms of Table IV: true is S2 (DAG-pruned minimum set), false
// is S1 (all cells).
type Manager struct {
	Notebook *Notebook
	UseDAG   bool
}

// NewManager creates a context manager in full-DataLab mode.
func NewManager(nb *Notebook) *Manager {
	return &Manager{Notebook: nb, UseDAG: true}
}

// QueryContext resolves a notebook-level query: locate the related data
// variable, take the defining cell and its descendants, add similar
// Markdown cells, and prune by task type.
func (m *Manager) QueryContext(query string, explicitVar string) Context {
	if !m.UseDAG {
		return m.allCellsContext()
	}
	task := ClassifyTask(query)

	variable := explicitVar
	if variable == "" {
		variable = m.predictVariable(query)
	}
	var cells []*Cell
	if variable != "" {
		if def, ok := m.Notebook.DefiningCell(variable); ok {
			// The initial cell c_s is where the chain's data originates:
			// walk up to the variable's ancestors first, then take every
			// descendant of the defining cell for thorough coverage (§VI).
			for _, aid := range m.Notebook.Ancestors(def.ID) {
				if a, ok := m.Notebook.Cell(aid); ok {
					cells = append(cells, a)
				}
			}
			cells = append(cells, def)
			for _, did := range m.Notebook.Descendants(def.ID) {
				if d, ok := m.Notebook.Cell(did); ok {
					cells = append(cells, d)
				}
			}
		}
	}
	// Markdown cells lack references; select by textual similarity.
	cells = append(cells, m.similarMarkdown(query)...)
	cells = pruneByTask(cells, task)
	return m.finish(cells)
}

func (m *Manager) allCellsContext() Context {
	cells := m.Notebook.Cells()
	return m.finish(cells)
}

// predictVariable is the simulated LLM prediction of the related data
// variable: lexical+semantic similarity between the query and each
// variable's name plus its defining cell's source.
func (m *Manager) predictVariable(query string) string {
	qTokens := textutil.ContentTokens(query)
	qVec := embed.Text(query)
	best, bestScore := "", 0.0
	for _, v := range m.Notebook.Variables() {
		score := textutil.OverlapRatio(textutil.ContentTokens(v), qTokens)
		if def, ok := m.Notebook.DefiningCell(v); ok {
			score += 0.5 * embed.Cosine(qVec, embed.Text(def.Source))
		}
		if score > bestScore {
			best, bestScore = v, score
		}
	}
	if bestScore < 0.1 {
		// Fall back to the most recently defined variable: follow-ups
		// usually continue from the latest result.
		cells := m.Notebook.Cells()
		for i := len(cells) - 1; i >= 0; i-- {
			if defs := cells[i].Defs(); len(defs) > 0 {
				return defs[0]
			}
		}
		return ""
	}
	return best
}

// similarMarkdown returns the top-K Markdown cells by embedding
// similarity with the query. The paper notes this is the weak spot of the
// mechanism (occasional misses cause Table IV's small accuracy drop).
func (m *Manager) similarMarkdown(query string) []*Cell {
	qVec := embed.Text(query)
	type scored struct {
		c *Cell
		s float64
	}
	var cands []scored
	for _, c := range m.Notebook.Cells() {
		if c.Type != CellMarkdown {
			continue
		}
		s := embed.Cosine(qVec, embed.Text(c.Source))
		if s > 0.18 {
			cands = append(cands, scored{c, s})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].s != cands[b].s {
			return cands[a].s > cands[b].s
		}
		return cands[a].c.ID < cands[b].c.ID
	})
	var out []*Cell
	for i := 0; i < len(cands) && i < markdownTopK; i++ {
		out = append(out, cands[i].c)
	}
	return out
}

// pruneByTask filters cells to the types relevant for the task, each once.
func pruneByTask(cells []*Cell, task TaskType) []*Cell {
	allowed := map[CellType]bool{}
	for _, t := range relevantCellTypes[task] {
		allowed[t] = true
	}
	var out []*Cell
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.ID] || !allowed[c.Type] {
			continue
		}
		seen[c.ID] = true
		out = append(out, c)
	}
	return out
}

// finish returns the selected cells in notebook order, for determinism.
func (m *Manager) finish(cells []*Cell) Context {
	pos := map[string]int{}
	for i, c := range m.Notebook.Cells() {
		pos[c.ID] = i
	}
	sort.SliceStable(cells, func(a, b int) bool { return pos[cells[a].ID] < pos[cells[b].ID] })
	return Context{Cells: cells}
}
