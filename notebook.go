package datalab

import (
	"context"
	"fmt"

	"datalab/internal/notebook"
	"datalab/internal/textutil"
)

// NotebookSession is a headless DataLab notebook: multi-language cells,
// live dependency DAG, and context-managed LLM assistance (§VI).
type NotebookSession struct {
	platform *Platform
	nb       *notebook.Notebook
	mgr      *notebook.Manager
}

// NewNotebook opens a notebook session on the platform.
func (p *Platform) NewNotebook(name string) *NotebookSession {
	nb := notebook.New(name)
	return &NotebookSession{
		platform: p,
		nb:       nb,
		mgr:      notebook.NewManager(nb),
	}
}

// AddSQL appends a SQL cell whose result binds to outputVar. The query is
// executed against the platform catalog immediately; re-running the same
// cell later (RunSQL) hits the plan cache and skips parsing.
func (s *NotebookSession) AddSQL(source, outputVar string) (cellID string, err error) {
	id, err := s.nb.AddSQLCell(source, outputVar)
	if err != nil {
		return "", err
	}
	if _, err := s.platform.catalog.QueryCtx(context.Background(), source); err != nil {
		// The cell stays (users keep broken drafts around); the error is
		// surfaced so the caller can show it.
		return id, fmt.Errorf("datalab: cell %s added but execution failed: %w", id, err)
	}
	return id, nil
}

// RunSQL re-executes a SQL cell and returns its typed Result. The cell's
// source was plan-cached when the cell was added, so re-runs skip the
// parser entirely.
func (s *NotebookSession) RunSQL(ctx context.Context, cellID string) (*Result, error) {
	c, ok := s.nb.Cell(cellID)
	if !ok {
		return nil, fmt.Errorf("datalab: unknown cell %q", cellID)
	}
	if c.Type != notebook.CellSQL {
		return nil, fmt.Errorf("datalab: cell %s is %s, not sql", cellID, c.Type)
	}
	return s.platform.catalog.QueryCtx(ctx, c.Source)
}

// AddPython appends a Python cell (static analysis only: the DAG tracks
// its variables; data operations run through agents).
func (s *NotebookSession) AddPython(source string) (string, error) {
	return s.nb.AddCell(notebook.CellPython, source)
}

// AddMarkdown appends a Markdown cell.
func (s *NotebookSession) AddMarkdown(source string) (string, error) {
	return s.nb.AddCell(notebook.CellMarkdown, source)
}

// AddChart appends a chart cell from a JSON spec.
func (s *NotebookSession) AddChart(specJSON string) (string, error) {
	return s.nb.AddCell(notebook.CellChart, specJSON)
}

// UpdateCell replaces a cell's source, refreshing the dependency DAG.
func (s *NotebookSession) UpdateCell(id, source string) error {
	return s.nb.UpdateCell(id, source)
}

// DeleteCell removes a cell.
func (s *NotebookSession) DeleteCell(id string) error {
	return s.nb.DeleteCell(id)
}

// NumCells returns the number of cells.
func (s *NotebookSession) NumCells() int { return s.nb.NumCells() }

// DependsOn returns the cell IDs a cell directly references.
func (s *NotebookSession) DependsOn(id string) []string { return s.nb.DependsOn(id) }

// ContextInfo describes the context DataLab would send to its agents for
// a query — useful for inspecting token costs.
type ContextInfo struct {
	CellIDs []string
	Tokens  int
}

// ContextFor resolves the minimum relevant context for a notebook-level
// query (Algorithm 3 + task-type pruning).
func (s *NotebookSession) ContextFor(query string) ContextInfo {
	ctx := s.mgr.QueryContext(query, "")
	info := ContextInfo{Tokens: ctx.Tokens()}
	for _, c := range ctx.Cells {
		info.CellIDs = append(info.CellIDs, c.ID)
	}
	return info
}

// FullContextTokens reports what the same query would cost without the
// DAG (every cell) — the S1 arm of Table IV.
func (s *NotebookSession) FullContextTokens() int {
	n := 0
	for _, c := range s.nb.Cells() {
		n += textutil.CountTokens(c.Source)
	}
	return n
}
