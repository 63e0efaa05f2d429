package notebook

import (
	"fmt"
	"sort"
	"strings"
)

// Notebook is an ordered collection of cells plus the live dependency DAG.
type Notebook struct {
	Name  string
	cells []*Cell
	byID  map[string]*Cell

	// varDef maps a variable name to the ID of the cell defining it
	// (last definition wins, like notebook execution order).
	varDef map[string]string
	// edges maps a cell to the IDs of cells it depends on (its ancestors'
	// first hop); reverse holds the inverse.
	edges   map[string][]string
	reverse map[string][]string
	nextSeq int
}

// New creates an empty notebook.
func New(name string) *Notebook {
	return &Notebook{
		Name:    name,
		byID:    map[string]*Cell{},
		varDef:  map[string]string{},
		edges:   map[string][]string{},
		reverse: map[string][]string{},
	}
}

// Cells returns the cells in notebook order.
func (n *Notebook) Cells() []*Cell {
	out := make([]*Cell, len(n.cells))
	copy(out, n.cells)
	return out
}

// Cell returns a cell by ID.
func (n *Notebook) Cell(id string) (*Cell, bool) {
	c, ok := n.byID[id]
	return c, ok
}

// NumCells returns the number of cells.
func (n *Notebook) NumCells() int { return len(n.cells) }

// AddCell appends a cell, analyzes it, and updates the DAG incrementally.
// Returns the assigned cell ID. Cells failing the syntax check are
// rejected (the DAG only reflects syntactically valid state).
func (n *Notebook) AddCell(cellType CellType, source string) (string, error) {
	n.nextSeq++
	id := fmt.Sprintf("c%03d", n.nextSeq)
	c := &Cell{ID: id, Type: cellType, Source: source}
	if err := c.analyze(); err != nil {
		return "", err
	}
	n.cells = append(n.cells, c)
	n.byID[id] = c
	n.updateCellEdges(c)
	return id, nil
}

// AddSQLCell appends a SQL cell with an explicit output variable binding.
func (n *Notebook) AddSQLCell(source, outputVar string) (string, error) {
	n.nextSeq++
	id := fmt.Sprintf("c%03d", n.nextSeq)
	c := &Cell{ID: id, Type: CellSQL, Source: source, OutputVar: outputVar}
	if err := c.analyze(); err != nil {
		return "", err
	}
	n.cells = append(n.cells, c)
	n.byID[id] = c
	n.updateCellEdges(c)
	return id, nil
}

// UpdateCell replaces a cell's source and incrementally refreshes the DAG.
// On syntax errors the cell and DAG are left unchanged.
func (n *Notebook) UpdateCell(id, source string) error {
	c, ok := n.byID[id]
	if !ok {
		return fmt.Errorf("notebook: unknown cell %q", id)
	}
	trial := &Cell{ID: c.ID, Type: c.Type, Source: source, OutputVar: c.OutputVar}
	if err := trial.analyze(); err != nil {
		return err
	}
	c.Source = source
	c.defs, c.refs = trial.defs, trial.refs
	n.rebuildVarTable()
	n.rebuildAllEdges()
	return nil
}

// DeleteCell removes a cell and refreshes the DAG.
func (n *Notebook) DeleteCell(id string) error {
	if _, ok := n.byID[id]; !ok {
		return fmt.Errorf("notebook: unknown cell %q", id)
	}
	delete(n.byID, id)
	for i, c := range n.cells {
		if c.ID == id {
			n.cells = append(n.cells[:i], n.cells[i+1:]...)
			break
		}
	}
	n.rebuildVarTable()
	n.rebuildAllEdges()
	return nil
}

// ConstructDAG rebuilds the whole DAG from scratch — Algorithm 3's two
// passes over all cells. Used at notebook open (the cold-start cost
// Figure 7 measures) and by UpdateCell/DeleteCell.
func (n *Notebook) ConstructDAG() {
	n.rebuildVarTable()
	n.rebuildAllEdges()
}

// rebuildVarTable is pass 1: identify new variables per cell.
func (n *Notebook) rebuildVarTable() {
	n.varDef = map[string]string{}
	for _, c := range n.cells {
		for _, v := range c.defs {
			n.varDef[v] = c.ID // later definitions shadow earlier ones
		}
	}
}

// rebuildAllEdges is pass 2: find referenced cells per cell.
func (n *Notebook) rebuildAllEdges() {
	n.edges = map[string][]string{}
	n.reverse = map[string][]string{}
	for _, c := range n.cells {
		n.linkCell(c)
	}
}

// updateCellEdges incrementally maintains the DAG for a newly added cell:
// register its definitions and link its references. Existing later cells
// cannot reference it yet (it was just created), so no global rebuild is
// needed — this is the fast path Figure 7's per-cell update measures.
func (n *Notebook) updateCellEdges(c *Cell) {
	n.linkCell(c)
	for _, v := range c.defs {
		n.varDef[v] = c.ID
	}
}

func (n *Notebook) linkCell(c *Cell) {
	seen := map[string]bool{}
	for _, ref := range c.refs {
		def, ok := n.varDef[ref]
		if !ok || def == c.ID || seen[def] {
			continue
		}
		seen[def] = true
		n.edges[c.ID] = append(n.edges[c.ID], def)
		n.reverse[def] = append(n.reverse[def], c.ID)
	}
}

// DependsOn returns the IDs of cells the given cell directly references.
func (n *Notebook) DependsOn(id string) []string {
	out := append([]string(nil), n.edges[id]...)
	sort.Strings(out)
	return out
}

// Ancestors returns every transitive dependency of a cell, in
// deterministic order.
func (n *Notebook) Ancestors(id string) []string {
	return n.closure(id, n.edges)
}

// Descendants returns every transitive dependent of a cell.
func (n *Notebook) Descendants(id string) []string {
	return n.closure(id, n.reverse)
}

func (n *Notebook) closure(id string, adj map[string][]string) []string {
	var out []string
	seen := map[string]bool{id: true}
	stack := append([]string(nil), adj[id]...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		out = append(out, cur)
		stack = append(stack, adj[cur]...)
	}
	sort.Strings(out)
	return out
}

// DefiningCell returns the cell that defines a data variable.
func (n *Notebook) DefiningCell(variable string) (*Cell, bool) {
	id, ok := n.varDef[variable]
	if !ok {
		// Case-insensitive fallback: SQL identifiers are case-blind.
		for v, cid := range n.varDef {
			if strings.EqualFold(v, variable) {
				id = cid
				ok = true
				break
			}
		}
	}
	if !ok {
		return nil, false
	}
	c, ok2 := n.byID[id]
	return c, ok2
}

// Variables returns all defined variable names, sorted.
func (n *Notebook) Variables() []string {
	out := make([]string, 0, len(n.varDef))
	for v := range n.varDef {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
