package knowledge

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"datalab/internal/embed"
	"datalab/internal/index"
	"datalab/internal/llm"
	"datalab/internal/textutil"
)

// Retriever runs Algorithm 2 (coarse-to-fine knowledge retrieval) plus the
// query-rewrite step that precedes it.
//
// Invariant: fine-stage features are per node, computed at insertion
// (Graph.addNode), and the question is analysed — tokenized, embedded —
// once per retrieval; scoring a candidate reads both and tokenizes nothing.
type Retriever struct {
	Graph  *Graph
	Client *llm.Client
	// Weights for the fine-grained ordering stage (ω1 lexical, ω2 semantic,
	// ω3 LLM-judged overall relevance).
	LexWeight, SemWeight, LLMWeight float64
	// CoarseK is the loose coarse-retrieval cutoff (recall-oriented).
	CoarseK int
	// Now anchors temporal-reference standardization.
	Now time.Time
}

// NewRetriever returns a retriever with the paper's default weighting.
func NewRetriever(g *Graph, client *llm.Client) *Retriever {
	return &Retriever{
		Graph:     g,
		Client:    client,
		LexWeight: 0.4, SemWeight: 0.4, LLMWeight: 0.2,
		CoarseK: 150,
		Now:     time.Date(2024, 11, 21, 0, 0, 0, 0, time.UTC),
	}
}

// Rewrite enhances a raw query: it resolves elliptical follow-ups
// ("what about this year?") against chat history and standardizes
// temporal references against the current time (§IV-C, Query Rewrite).
func (r *Retriever) Rewrite(query string, history []string) string {
	out := strings.TrimSpace(query)

	// Temporal standardization first, so a follow-up like "what about
	// this year?" contributes a concrete year before prior context (with
	// its stale temporal terms) is merged in.
	out = r.standardizeTemporal(out)

	// Elliptical follow-up: import the prior query's content terms.
	lower := strings.ToLower(out)
	elliptical := strings.HasPrefix(strings.ToLower(query), "what about") ||
		strings.HasPrefix(strings.ToLower(query), "how about") ||
		strings.HasPrefix(strings.ToLower(query), "and for") ||
		len(textutil.ContentTokens(lower)) <= 2
	if elliptical && len(history) > 0 {
		prev := history[len(history)-1]
		prevTokens := textutil.ContentTokens(prev)
		curTokens := textutil.ContentTokens(out)
		curSet := map[string]bool{}
		for _, t := range curTokens {
			curSet[t] = true
		}
		merged := append([]string{}, curTokens...)
		for _, t := range prevTokens {
			if !curSet[t] && !isTemporalToken(t) {
				merged = append(merged, t)
			}
		}
		out = strings.Join(merged, " ")
	}
	r.Client.Charge("rewrite: "+query, out)
	return out
}

func (r *Retriever) standardizeTemporal(out string) string {
	replacements := []struct{ phrase, repl string }{
		{"this year", fmt.Sprintf("in %d", r.Now.Year())},
		{"last year", fmt.Sprintf("in %d", r.Now.Year()-1)},
		{"this month", fmt.Sprintf("in %d-%02d", r.Now.Year(), int(r.Now.Month()))},
		{"last month", lastMonth(r.Now)},
		{"today", "on " + r.Now.Format("2006-01-02")},
		{"yesterday", "on " + r.Now.AddDate(0, 0, -1).Format("2006-01-02")},
	}
	outLower := strings.ToLower(out)
	for _, rp := range replacements {
		for {
			i := strings.Index(outLower, rp.phrase)
			if i < 0 {
				break
			}
			out = out[:i] + rp.repl + out[i+len(rp.phrase):]
			outLower = strings.ToLower(out)
		}
	}
	return out
}

func lastMonth(now time.Time) string {
	prev := now.AddDate(0, -1, 0)
	return fmt.Sprintf("in %d-%02d", prev.Year(), int(prev.Month()))
}

func isTemporalToken(t string) bool {
	if _, err := strconv.Atoi(t); err == nil && len(t) == 4 {
		return true
	}
	switch t {
	case "year", "month", "day", "today", "yesterday", "last", "quarter":
		return true
	}
	return false
}

// Scored is one retrieved node with its weighted matching score.
type Scored struct {
	Node  *Node
	Score float64
}

// Retrieve implements Algorithm 2: coarse lexical+semantic retrieval with
// a loose threshold, alias backtracking, fine-grained weighted ordering,
// and top-K selection.
func (r *Retriever) Retrieve(query string, topK int) []Scored {
	g := r.Graph

	// The question's analysis, shared by both coarse searches and every
	// fine-stage score.
	qTokens := textutil.Tokenize(query)
	qVec := embed.Tokens(qTokens)
	qTokens = slices.DeleteFunc(qTokens, textutil.IsStopword)
	var qDistinct []string
	for _, t := range qTokens {
		if !slices.Contains(qDistinct, t) {
			qDistinct = append(qDistinct, t)
		}
	}

	// Coarse stage: the union of both searches' top CoarseK, aliases
	// backtracked to primaries. Only membership matters — the fine stage
	// rescores and reorders every candidate.
	coarse := [2][]index.Hit{g.lex.Search(qTokens, r.CoarseK), g.vec.Search(&qVec, r.CoarseK)}
	seen := make([]bool, len(g.order))
	scored := make([]Scored, 0, len(coarse[0])+len(coarse[1]))
	for _, hits := range coarse {
		for _, h := range hits {
			n := g.primary(g.order[h.Ord])
			if seen[n.ord] {
				continue
			}
			seen[n.ord] = true
			scored = append(scored, Scored{Node: n, Score: r.fineScore(n, query, qDistinct, &qVec)})
		}
	}
	slices.SortFunc(scored, func(a, b Scored) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.Node.ID, b.Node.ID)
	})
	if len(scored) > topK {
		scored = scored[:topK]
	}
	return scored
}

// fineScore is the fine stage's weighted matching score of one candidate:
// the share of the name's content tokens the question covers and the share
// of the question's the node's text covers (lexical), the cosine of the two
// embeddings (semantic), and the LLM's relevance judgment.
func (r *Retriever) fineScore(n *Node, query string, qDistinct []string, qVec *embed.Vector) float64 {
	var nameCovered, queryCovered float64
	if len(n.nameTokens) > 0 {
		hit := 0
		for _, t := range n.nameTokens {
			if slices.Contains(qDistinct, t) {
				hit++
			}
		}
		nameCovered = float64(hit) / float64(len(n.nameTokens))
	}
	if len(qDistinct) > 0 {
		hit := 0
		for _, t := range qDistinct {
			if _, ok := n.contentTokens[t]; ok {
				hit++
			}
		}
		queryCovered = float64(hit) / float64(len(qDistinct))
	}
	lexScore := nameCovered*0.6 + queryCovered*0.4
	semScore := n.vec.Dot(qVec)
	if semScore < 0 {
		semScore = 0
	}
	// The LLM relevance judgment concentrates around the mean of the
	// two mechanical signals — it mostly agrees, with bounded noise.
	llmScore := r.Client.ScoreKey(n.relKey.Then(query), 0, 1, (lexScore+semScore)/2)
	return r.LexWeight*lexScore + r.SemWeight*semScore + r.LLMWeight*llmScore
}

// RetrieveColumnsScoped retrieves column nodes belonging to one table —
// the path agents take once the proxy has fixed the target table. Without
// scoping, homonymous columns from sibling tables (every table has a
// net_margin) crowd the candidate list.
func (r *Retriever) RetrieveColumnsScoped(query, tableName string, topK int) []Scored {
	return r.retrieveColumns(query, "column:"+strings.ToLower(tableName)+".", topK)
}

// RetrieveColumns is a convenience wrapper returning only column nodes
// (the schema-linking task consumes these).
func (r *Retriever) RetrieveColumns(query string, topK int) []Scored {
	return r.retrieveColumns(query, "", topK)
}

// retrieveColumns returns the first topK distinct columns, best score
// first, that the CoarseK retrieved nodes are or stand for and whose ID has
// the prefix.
func (r *Retriever) retrieveColumns(query, prefix string, topK int) []Scored {
	g := r.Graph
	seen := make([]bool, len(g.order))
	var out []Scored
	for _, s := range r.Retrieve(query, r.CoarseK) {
		n, ok := g.columnOf(s.Node)
		if !ok || seen[n.ord] || !strings.HasPrefix(n.ID, prefix) {
			continue
		}
		seen[n.ord] = true
		out = append(out, Scored{Node: n, Score: s.Score})
		if len(out) == topK {
			break
		}
	}
	return out
}

// columnOf returns the column a retrieved node is or, for a jargon node,
// counts as retrieving: the one its maps_to components name, else — derived
// columns hang off their base column — the first column of that name.
func (g *Graph) columnOf(n *Node) (*Node, bool) {
	if n.Type == NodeColumn {
		return n, true
	}
	if n.mapsTo == "" {
		return nil, false
	}
	if col, ok := g.nodes[n.mapsTo]; ok {
		return col, true
	}
	return g.columnNamed(n.Component("maps_to_column"))
}
