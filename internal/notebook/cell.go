// Package notebook implements DataLab's augmented computational notebook
// backend and its Cell-based Context Management module (§VI): the
// multi-language cell model, dependency-DAG construction from variable
// references (Algorithm 3), incremental DAG maintenance, and adaptive
// context retrieval with task-type pruning.
package notebook

import (
	"fmt"
	"regexp"
	"strings"

	"datalab/internal/pymini"
	"datalab/internal/viz"
)

// CellType enumerates the cell languages DataLab notebooks wrangle.
type CellType string

// Supported cell types.
const (
	CellSQL      CellType = "sql"
	CellPython   CellType = "python"
	CellPySpark  CellType = "pyspark"
	CellChart    CellType = "chart"
	CellMarkdown CellType = "markdown"
)

// Cell is one notebook cell.
type Cell struct {
	ID     string
	Type   CellType
	Source string
	// OutputVar names the data variable a SQL cell's SELECT result is
	// stored into (e.g. a DataFrame); empty for non-SQL cells unless the
	// author binds one explicitly.
	OutputVar string

	// analysis results, maintained by the notebook on every change:
	defs []string // variables this cell introduces
	refs []string // external variables this cell reads
}

// Defs returns the variables the cell defines.
func (c *Cell) Defs() []string { return append([]string(nil), c.defs...) }

// analyze recomputes defs/refs from the source. Syntax errors leave the
// previous analysis in place and are reported — the DAG only updates when
// changes pass the syntax check (§VI).
func (c *Cell) analyze() error {
	switch c.Type {
	case CellPython, CellPySpark:
		mod, err := pymini.Parse(c.Source)
		if err != nil {
			return err
		}
		c.defs = pymini.GlobalDefs(mod)
		c.refs = pymini.ExternalRefs(mod)
	case CellSQL:
		c.defs = nil
		if v := c.sqlOutputVar(); v != "" {
			c.defs = []string{v}
		}
		c.refs = sqlTableRefs(c.Source)
	case CellChart:
		c.defs = nil
		c.refs = nil
		if spec, err := viz.ParseSpec(c.Source); err == nil && spec.Data != "" {
			c.refs = []string{spec.Data}
		}
	case CellMarkdown:
		// Markdown produces and references no variables (Algorithm 3).
		c.defs, c.refs = nil, nil
	default:
		return fmt.Errorf("notebook: unknown cell type %q", c.Type)
	}
	return nil
}

// sqlOutputVar returns the data variable the cell's SELECT is stored in:
// the explicit OutputVar, or one declared with a leading
// `-- out: name` directive, else a default derived from the cell ID.
func (c *Cell) sqlOutputVar() string {
	if c.OutputVar != "" {
		return c.OutputVar
	}
	for _, line := range strings.Split(c.Source, "\n") {
		trimmed := strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(trimmed, "-- out:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "result_" + c.ID
}

// identPattern matches candidate table identifiers after FROM/JOIN.
var identPattern = regexp.MustCompile(`(?i)\b(?:from|join)\s+([A-Za-z_][A-Za-z0-9_.]*)`)

// sqlTableRefs extracts FROM/JOIN identifiers: a SQL cell selecting from
// another cell's output variable depends on that cell.
func sqlTableRefs(sql string) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range identPattern.FindAllStringSubmatch(sql, -1) {
		name := m[1]
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}
