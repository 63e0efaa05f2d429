package knowledge

// The external test package (which, unlike this one, can import benchgen)
// drives arbitrary insert-and-replace sequences through these.

func (g *Graph) AddNodeForTest(n *Node) { g.addNode(n) }

func (g *Graph) ColumnNamedForTest(name string) (*Node, bool) { return g.columnNamed(name) }
