package knowledge

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"datalab/internal/index"
)

// NodeType enumerates the knowledge-graph node types (§IV-B, Figure 4).
type NodeType string

// Primary node types plus the alias node type.
const (
	NodeDatabase NodeType = "database"
	NodeTable    NodeType = "table"
	NodeColumn   NodeType = "column"
	NodeValue    NodeType = "value"
	NodeJargon   NodeType = "jargon"
	NodeAlias    NodeType = "alias"
)

// Node is one knowledge-graph node: a named bag of components.
type Node struct {
	ID   string
	Type NodeType
	Name string
	// Components are the knowledge fields: description, usage, tags,
	// calculation_logic, type, value...
	Components map[string]string
	// Parent is the logical parent (column -> table -> database); alias
	// nodes point at the primary node they denote.
	Parent string
}

// Component returns a component value or "".
func (n *Node) Component(key string) string {
	if n.Components == nil {
		return ""
	}
	return n.Components[key]
}

// Graph is the knowledge graph with its two task-aware retrieval indexes:
// flat maps of nodes and parent -> children edges. There is no node
// removal; re-adding an ID replaces the older definition.
//
// Clone copies the maps and shares what they point at: nodes are immutable
// once added, and each edge list is handed over capped at its length
// (l[:len:len], as internal/index does for posting lists), so an append on
// either side never writes into the other's view.
//
// Concurrency contract: any number of goroutines may read and Clone a
// graph concurrently — neither writes to it — but mutation is
// single-writer and must happen on a private (cloned, not yet published)
// graph — Platform.LearnKnowledge's swap protocol.
type Graph struct {
	nodes    map[string]*Node
	children map[string][]string // logical children, in insertion order

	// Task-aware indexes (§IV-B): the full index concatenates every
	// component including calculation logic (NL2DSL-style tasks match on
	// formula vocabulary); the light index holds descriptions/usage only
	// (schema linking needs precision, and long calculation text dilutes
	// term statistics).
	lex      *index.Lexical
	vec      *index.Vector
	lexLight *index.Lexical
	vecLight *index.Vector
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodes:    map[string]*Node{},
		children: map[string][]string{},
		lex:      index.NewLexical(),
		vec:      index.NewVector(),
		lexLight: index.NewLexical(),
		vecLight: index.NewVector(),
	}
}

// Clone returns an independent snapshot of the graph: mutating the clone
// (AddBundle, AddJargon, AddAlias) leaves the original untouched, so
// in-flight readers of the original are safe while a writer prepares the
// next snapshot. See Platform.LearnKnowledge for the swap protocol.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		nodes:    maps.Clone(g.nodes),
		children: make(map[string][]string, len(g.children)),
		lex:      g.lex.Clone(),
		vec:      g.vec.Clone(),
		lexLight: g.lexLight.Clone(),
		vecLight: g.vecLight.Clone(),
	}
	for id, kids := range g.children {
		ng.children[id] = kids[:len(kids):len(kids)]
	}
	return ng
}

// NumNodes returns the number of distinct node IDs.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns a node by ID.
func (g *Graph) Node(id string) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// NodesOfType returns all node IDs of the given type, sorted.
func (g *Graph) NodesOfType(t NodeType) []string {
	var out []string
	for id, n := range g.nodes {
		if n.Type == t {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Children returns the logical children of a node in insertion order. The
// slice is the graph's own: callers must not modify it.
func (g *Graph) Children(id string) []string { return g.children[id] }

// addNode inserts (or replaces) a node and indexes it.
func (g *Graph) addNode(n *Node) {
	g.nodes[n.ID] = n
	if n.Parent != "" {
		g.children[n.Parent] = append(g.children[n.Parent], n.ID)
	}
	g.indexNode(n)
}

// indexNode builds the {name, content, tag} triplet for both indexes.
// The content field concatenates components; description and usage carry
// retrieval weight for every task, calculation logic is included so
// NL2DSL-style tasks can match on formula vocabulary.
func (g *Graph) indexNode(n *Node) {
	var parts []string
	for _, key := range []string{"description", "usage", "calculation_logic", "definition", "value"} {
		if v := n.Component(key); v != "" {
			parts = append(parts, v)
		}
	}
	e := index.Entry{
		ID:      n.ID,
		Name:    n.Name,
		Content: strings.Join(parts, " "),
		Tag:     string(n.Type) + " " + n.Component("tags"),
	}
	g.lex.Add(e)
	g.vec.Add(e)

	var lightParts []string
	for _, key := range []string{"description", "usage", "definition"} {
		if v := n.Component(key); v != "" {
			lightParts = append(lightParts, v)
		}
	}
	light := index.Entry{
		ID:      n.ID,
		Name:    n.Name,
		Content: strings.Join(lightParts, " "),
		Tag:     e.Tag,
	}
	g.lexLight.Add(light)
	g.vecLight.Add(light)
}

// Backtrack resolves an alias node to its primary node; primary nodes
// return themselves (Algorithm 2, line 7).
func (g *Graph) Backtrack(id string) *Node {
	n, ok := g.Node(id)
	if !ok {
		return nil
	}
	for n.Type == NodeAlias {
		parent, ok := g.Node(n.Parent)
		if !ok {
			return n
		}
		n = parent
	}
	return n
}

// ColumnID builds the canonical column node ID.
func ColumnID(tableName, column string) string {
	return "column:" + strings.ToLower(tableName) + "." + strings.ToLower(column)
}

// TableID builds the canonical table node ID.
func TableID(db, tableName string) string {
	if db != "" {
		return "table:" + strings.ToLower(db) + "." + strings.ToLower(tableName)
	}
	return "table:" + strings.ToLower(tableName)
}

// AddBundle loads a generated knowledge bundle into the graph, respecting
// the ablation level: LevelNone loads bare names only, LevelPartial adds
// descriptions/usage/tags, LevelFull adds derived-column logic and values.
func (g *Graph) AddBundle(b *Bundle, level Level) {
	dbID := "database:" + strings.ToLower(b.Database.Name)
	if _, ok := g.Node(dbID); !ok && b.Database.Name != "" {
		comp := map[string]string{}
		if level >= LevelPartial {
			comp["description"] = b.Database.Description
			comp["usage"] = b.Database.Usage
			comp["tags"] = strings.Join(b.Database.Tags, " ")
		}
		g.addNode(&Node{ID: dbID, Type: NodeDatabase, Name: b.Database.Name, Components: comp})
	}

	tID := TableID(b.Database.Name, b.Table.Name)
	tComp := map[string]string{}
	if level >= LevelPartial {
		tComp["description"] = b.Table.Description
		tComp["usage"] = b.Table.Usage
		tComp["tags"] = strings.Join(b.Table.Tags, " ")
	}
	if level >= LevelFull {
		tComp["organization"] = b.Table.Organization
		tComp["key_columns"] = strings.Join(b.Table.KeyColumns, " ")
		tComp["key_derived"] = strings.Join(b.Table.KeyDerived, " ")
	}
	g.addNode(&Node{ID: tID, Type: NodeTable, Name: b.Table.Name, Components: tComp, Parent: dbID})

	for _, ck := range b.Columns {
		cID := ColumnID(b.Table.Name, ck.Name)
		comp := map[string]string{"type": ck.Type}
		if level >= LevelPartial {
			comp["description"] = ck.Description
			comp["usage"] = ck.Usage
			comp["tags"] = strings.Join(ck.Tags, " ")
		}
		g.addNode(&Node{ID: cID, Type: NodeColumn, Name: ck.Name, Components: comp, Parent: tID})

		if level >= LevelFull {
			for _, d := range ck.Derived {
				dID := cID + "#" + d.Name
				g.addNode(&Node{
					ID:   dID,
					Type: NodeColumn,
					Name: d.Name,
					Components: map[string]string{
						"description":       d.Description,
						"usage":             d.Usage,
						"calculation_logic": d.CalculationLogic,
						"tags":              strings.Join(d.Tags, " ") + " derived",
						"related_columns":   strings.Join(d.RelatedColumns, " "),
					},
					Parent: cID,
				})
			}
		}
	}
	if level >= LevelFull {
		for _, v := range b.Values {
			vID := fmt.Sprintf("value:%s.%s=%s", strings.ToLower(v.Table), v.Column, strings.ToLower(v.Value))
			g.addNode(&Node{
				ID:   vID,
				Type: NodeValue,
				Name: v.Value,
				Components: map[string]string{
					"description": v.Description,
					"value":       v.Value,
				},
				Parent: ColumnID(v.Table, v.Column),
			})
			for _, alias := range v.Aliases {
				g.AddAlias(alias, vID)
			}
		}
	}
}

// AddJargon loads a glossary entry as a jargon node plus alias nodes.
func (g *Graph) AddJargon(j JargonEntry) {
	jID := "jargon:" + strings.ToLower(j.Term)
	comp := map[string]string{
		"definition": j.Definition,
	}
	if j.MapsToColumn != "" {
		comp["maps_to_column"] = strings.ToLower(j.MapsToColumn)
	}
	if j.MapsToTable != "" {
		comp["maps_to_table"] = strings.ToLower(j.MapsToTable)
	}
	if j.MapsToValue != "" {
		comp["maps_to_value"] = j.MapsToValue
	}
	g.addNode(&Node{ID: jID, Type: NodeJargon, Name: j.Term, Components: comp})
	for _, a := range j.Aliases {
		g.AddAlias(a, jID)
	}
}

// AddAlias registers an alternative term for a primary node. Alias nodes
// may be added dynamically in deployment as glossaries evolve.
func (g *Graph) AddAlias(alias, primaryID string) {
	aID := "alias:" + strings.ToLower(alias) + "->" + primaryID
	g.addNode(&Node{ID: aID, Type: NodeAlias, Name: alias, Parent: primaryID})
}
