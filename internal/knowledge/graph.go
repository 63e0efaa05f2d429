package knowledge

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"datalab/internal/embed"
	"datalab/internal/index"
	"datalab/internal/llm"
	"datalab/internal/textutil"
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

// Node is one knowledge-graph node: a named bag of components. A node is
// immutable once added to a graph: clones share it by pointer.
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

	// What retrieval reads per candidate (Retriever.Retrieve), which depends
	// on the node and on no question. Graph.addNode computes it before the
	// node becomes reachable; nothing writes it afterwards.
	// Token ids are the vocabulary's of the graph that added the node
	// (Graph.vocab), which every clone of it extends and never renumbers.
	ord           int32        // the node's ordinal: its slot in Graph.order and in both indexes
	nameTokens    []int32      // ids of the distinct content tokens of Name, ascending
	contentTokens []int32      // ids of the distinct content tokens of Name+description+usage+definition, ascending
	vec           embed.Sparse // embedding of that text
	relKey        llm.Key      // of "rel:"+ID+"|": the relevance judgment's key, up to the question
	mapsTo        string       // a jargon node's ColumnID(maps_to_table, maps_to_column), "" if it names no column
}

// Component returns a component value or "".
func (n *Node) Component(key string) string {
	if n.Components == nil {
		return ""
	}
	return n.Components[key]
}

// Graph is the knowledge graph with its retrieval index pair: flat maps of
// nodes and parent -> children edges. There is no node removal; re-adding
// an ID replaces the older definition.
//
// Clone copies the maps and shares what they point at: nodes are immutable
// once added, and each edge list is handed over capped at its length
// (l[:len:len], as internal/index does for posting lists), so an append on
// either side never writes into the other's view.
//
// State derived from the nodes — each node's fine-stage features, the
// token vocabulary, the value-hint list, the column-name lookup — is
// brought up to date by addNode, the only mutation, so it has the
// lifetime of the node or of the snapshot it describes and is never
// invalidated: the hint list is replaced by a fresh slice, never edited,
// so a clone or a caller holding the old one keeps what it had.
//
// Concurrency contract: any number of goroutines may read and Clone a
// graph concurrently — neither writes to it — but mutation is
// single-writer and must happen on a private (cloned, not yet published)
// graph — Platform.LearnKnowledge's swap protocol.
type Graph struct {
	nodes    map[string]*Node
	children map[string][]string // logical children, in insertion order

	// order holds every node at its ordinal: addNode gives a new ID the next
	// one and a replacement the one its ID already has, so an ordinal names
	// the same ID in a graph and in every clone of it, for good — nothing
	// removes a node. The retrieval indexes address documents by it and
	// Retrieve comes back from a hit through it. Clone copies the slice, so
	// a replacement writes only the clone's slot.
	order []*Node

	// hints is what ValueHints returns: one hint per value node in ID
	// order, then one per jargon node that maps to a value, in ID order.
	hints []ValueHint
	// colByName maps a lower-cased column name to the smallest ID among
	// the column nodes carrying it.
	colByName map[string]string
	// vocab interns every content token of every node's fine-stage text:
	// a new token takes the next id, and nothing removes one, so an id
	// names the same token in a graph and in every clone of it. Clone
	// copies the map, so a clone adds tokens only to its own.
	vocab map[string]int32

	// The retrieval indexes (§IV-B), one lexical and one semantic, over
	// each node's name, description, usage and definition: schema linking
	// needs precision, and long calculation text dilutes term statistics.
	// A task that matches on formula vocabulary (NL2DSL-style) would bring
	// its own index over calculation_logic together with its caller.
	lex *index.Lexical
	vec *index.Vector
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodes:     map[string]*Node{},
		children:  map[string][]string{},
		colByName: map[string]string{},
		vocab:     map[string]int32{},
		lex:       index.NewLexical(),
		vec:       index.NewVector(),
	}
}

// Clone returns an independent snapshot of the graph: mutating the clone
// (AddBundle, AddJargon, AddAlias) leaves the original untouched, so
// in-flight readers of the original are safe while a writer prepares the
// next snapshot. See Platform.LearnKnowledge for the swap protocol.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		nodes:     maps.Clone(g.nodes),
		order:     slices.Clone(g.order),
		children:  make(map[string][]string, len(g.children)),
		hints:     g.hints,
		colByName: maps.Clone(g.colByName),
		vocab:     maps.Clone(g.vocab),
		lex:       g.lex.Clone(),
		vec:       g.vec.Clone(),
	}
	for id, kids := range g.children {
		ng.children[id] = kids[:len(kids):len(kids)]
	}
	return ng
}

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

// ValueHints returns the translator's value hints: every value node as
// {its name, its parent's name, its value}, in node-ID order, then every
// jargon node that maps to a value, in node-ID order. The slice is the
// graph's own: callers must not modify it.
func (g *Graph) ValueHints() []ValueHint { return g.hints }

// columnNamed returns the column node with the given name, compared
// case-insensitively; of several, the one with the smallest ID.
func (g *Graph) columnNamed(name string) (*Node, bool) {
	id, ok := g.colByName[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return g.nodes[id], true
}

// addNode inserts (or replaces) a node, indexes it and brings the derived
// state up to date. It takes ownership of n, which no reader can reach yet.
func (g *Graph) addNode(n *Node) {
	old := g.nodes[n.ID]
	g.nodes[n.ID] = n
	if old == nil {
		n.ord = int32(len(g.order))
		g.order = append(g.order, n)
	} else {
		n.ord = old.ord
		g.order[n.ord] = n
	}
	if old == nil || old.Parent != n.Parent {
		if old != nil && old.Parent != "" {
			// Into a fresh slice: clones share the old backing array.
			kids := g.children[old.Parent]
			g.children[old.Parent] = slices.DeleteFunc(slices.Clone(kids), func(id string) bool { return id == n.ID })
		}
		if n.Parent != "" {
			g.children[n.Parent] = append(g.children[n.Parent], n.ID)
		}
	}
	g.indexNode(n)
	g.noteColumnName(old, n)
	g.noteHints(old, n)
}

// indexNode tokenizes the node's text once and builds from the tokens the
// {name, content, tag} triplet both indexes hold and the node's fine-stage
// features. The content — description, usage, definition — is also, behind
// the name, the text the fine stage scores.
func (g *Graph) indexNode(n *Node) {
	tokens := func(key string) []string { return textutil.Tokenize(n.Component(key)) }
	name := textutil.Tokenize(n.Name)
	e := index.Entry{
		ID:      n.ID,
		Ord:     n.ord,
		Name:    name,
		Content: slices.Concat(tokens("description"), tokens("usage"), tokens("definition")),
		Tag:     textutil.Tokenize(string(n.Type) + " " + n.Component("tags")),
	}
	g.lex.Add(e)
	g.vec.Add(e)

	fine := slices.Concat(name, e.Content)
	vec := embed.Tokens(fine)
	n.vec = vec.Sparse()
	n.relKey = llm.KeyOf("rel:" + n.ID + "|")
	if col := n.Component("maps_to_column"); n.Type == NodeJargon && col != "" {
		n.mapsTo = ColumnID(n.Component("maps_to_table"), col)
	}
	n.nameTokens = g.internContent(name)
	n.contentTokens = g.internContent(fine)
}

// internContent returns the ids of the distinct content tokens among
// tokens, ascending, adding to the vocabulary those it does not hold.
func (g *Graph) internContent(tokens []string) []int32 {
	var ids []int32
	for _, t := range tokens {
		if textutil.IsStopword(t) {
			continue
		}
		id, ok := g.vocab[t]
		if !ok {
			id = int32(len(g.vocab))
			g.vocab[t] = id
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return slices.Clip(slices.Compact(ids))
}

// noteColumnName keeps colByName current after n took old's place (old is
// nil for a new ID).
func (g *Graph) noteColumnName(old, n *Node) {
	newKey := ""
	if n.Type == NodeColumn {
		newKey = strings.ToLower(n.Name)
		if first, ok := g.colByName[newKey]; !ok || n.ID < first {
			g.colByName[newKey] = n.ID
		}
	}
	if old == nil || old.Type != NodeColumn {
		return
	}
	// The replaced column may have been the first under a name it no
	// longer carries: the next one in ID order takes over.
	oldKey := strings.ToLower(old.Name)
	if oldKey == newKey || g.colByName[oldKey] != old.ID {
		return
	}
	delete(g.colByName, oldKey)
	for id, m := range g.nodes {
		if m.Type != NodeColumn || strings.ToLower(m.Name) != oldKey {
			continue
		}
		if first, ok := g.colByName[oldKey]; !ok || id < first {
			g.colByName[oldKey] = id
		}
	}
}

// noteHints rebuilds the hint list when n taking old's place can have
// changed it: either is a value or jargon node, or n is the parent column
// a value node's hint names. The list is a fresh slice every time — clones
// and earlier callers of ValueHints keep the one they hold.
func (g *Graph) noteHints(old, n *Node) {
	hinting := func(m *Node) bool { return m != nil && (m.Type == NodeValue || m.Type == NodeJargon) }
	if !hinting(old) && !hinting(n) &&
		!slices.ContainsFunc(g.children[n.ID], func(id string) bool { return g.nodes[id].Type == NodeValue }) {
		return
	}
	var hints []ValueHint
	for _, id := range g.NodesOfType(NodeValue) {
		v := g.nodes[id]
		col := ""
		if parent, ok := g.nodes[v.Parent]; ok {
			col = parent.Name
		}
		hints = append(hints, ValueHint{Term: v.Name, Column: col, Value: v.Component("value")})
	}
	for _, id := range g.NodesOfType(NodeJargon) {
		j := g.nodes[id]
		if v := j.Component("maps_to_value"); v != "" {
			hints = append(hints, ValueHint{Term: j.Name, Column: j.Component("maps_to_column"), Value: v})
		}
	}
	g.hints = hints
}

// primary resolves an alias node to its primary node; primary nodes
// return themselves (Algorithm 2, line 7).
func (g *Graph) primary(n *Node) *Node {
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
