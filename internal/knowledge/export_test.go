package knowledge

import (
	"slices"

	"datalab/internal/embed"
	"datalab/internal/index"
	"datalab/internal/textutil"
)

// The external test package (which, unlike this one, can import benchgen)
// drives arbitrary insert-and-replace sequences through these.

func (g *Graph) AddNodeForTest(n *Node) { g.addNode(n) }

func (g *Graph) ColumnNamedForTest(name string) (*Node, bool) { return g.columnNamed(name) }

// CoarseIDsForTest returns what Retrieve's coarse stage finds for query
// before backtracking: the lexical search's hit IDs, then the semantic
// one's, each best first.
func (g *Graph) CoarseIDsForTest(query string, k int) []string {
	tokens := textutil.Tokenize(query)
	vec := embed.Tokens(tokens)
	var ids []string
	for _, hits := range [2][]index.Hit{g.lex.Search(slices.DeleteFunc(tokens, textutil.IsStopword), k), g.vec.Search(&vec, k)} {
		for _, h := range hits {
			ids = append(ids, h.ID)
		}
	}
	return ids
}
