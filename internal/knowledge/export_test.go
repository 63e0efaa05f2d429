package knowledge

import (
	"cmp"
	"slices"

	"datalab/internal/embed"
	"datalab/internal/index"
	"datalab/internal/textutil"
)

// The external test package (which, unlike this one, can import benchgen)
// drives arbitrary insert-and-replace sequences through these.

// The retriever's weights and coarse cutoff, for the reference formulas
// the external tests hold it to.
const (
	LexWeight, SemWeight, LLMWeight = lexWeight, semWeight, llmWeight
	CoarseK                         = coarseK
)

// Retrieve implements Algorithm 2 in full: the topK best candidates by
// their fine-grained score, best first.
func (r *Retriever) Retrieve(query string, topK int) []Scored {
	scored := r.candidates(query, topK)
	slices.SortFunc(scored, byRank)
	return scored
}

func (g *Graph) AddNodeForTest(n *Node) { g.addNode(n) }

func (g *Graph) PrimaryForTest(id string) *Node { return g.primary(g.nodes[id]) }

func (g *Graph) ColumnNamedForTest(name string) (*Node, bool) { return g.columnNamed(name) }

// CoarseIDsForTest returns what Retrieve's coarse stage finds for query
// before backtracking: the lexical search's hit IDs, then the semantic
// one's, each best first.
func (g *Graph) CoarseIDsForTest(query string, k int) []string {
	tokens := textutil.Tokenize(query)
	vec := embed.Tokens(tokens)
	var ids []string
	for _, hits := range [2][]index.Hit{g.lex.Search(slices.DeleteFunc(tokens, textutil.IsStopword), k), g.vec.Search(&vec, k)} {
		// Each search returns a set; rank it as the searches select.
		slices.SortFunc(hits, func(a, b index.Hit) int {
			if a.Score != b.Score {
				return cmp.Compare(b.Score, a.Score)
			}
			return cmp.Compare(a.ID, b.ID)
		})
		for _, h := range hits {
			ids = append(ids, h.ID)
		}
	}
	return ids
}
