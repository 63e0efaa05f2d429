package knowledge

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

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
// once per retrieval; scoring a candidate reads both, tokenizes nothing
// and looks up no token.
type Retriever struct {
	Graph  *Graph
	Client *llm.Client
}

// The paper's weights for the fine-grained ordering stage (ω1 lexical, ω2
// semantic, ω3 LLM-judged overall relevance), and the loose coarse-
// retrieval cutoff (recall-oriented).
const (
	lexWeight, semWeight, llmWeight = 0.4, 0.4, 0.2
	coarseK                         = 150
)

// NewRetriever returns a retriever over a graph.
func NewRetriever(g *Graph, client *llm.Client) *Retriever {
	return &Retriever{Graph: g, Client: client}
}

// Rewrite enhances a raw query: it resolves elliptical follow-ups
// ("what about this year?") against chat history and standardizes
// temporal references against the current time (§IV-C, Query Rewrite).
func (r *Retriever) Rewrite(query string, history []string) string {
	out := strings.TrimSpace(query)

	// Temporal standardization first, so a follow-up like "what about
	// this year?" contributes a concrete year before prior context (with
	// its stale temporal terms) is merged in.
	out = standardizeTemporal(out)

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

// temporalPhrases standardizes relative time references against the date
// the simulated deployment treats as today, 2024-11-21.
var temporalPhrases = []struct{ phrase, repl string }{
	{"this year", "in 2024"},
	{"last year", "in 2023"},
	{"this month", "in 2024-11"},
	{"last month", "in 2024-10"},
	{"today", "on 2024-11-21"},
	{"yesterday", "on 2024-11-20"},
}

func standardizeTemporal(out string) string {
	outLower := strings.ToLower(out)
	for _, rp := range temporalPhrases {
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

// byRank is the fine stage's order: higher score first, ties by node ID.
func byRank(a, b Scored) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	return cmp.Compare(a.Node.ID, b.Node.ID)
}

func ranksBefore(a, b Scored) bool { return byRank(a, b) < 0 }

// candidates implements Algorithm 2 up to its cut: coarse lexical+semantic
// retrieval with a loose threshold, alias backtracking, and the fine-grained
// weighted score of every candidate, of which it returns the k best by
// byRank — as a set, in no particular order, so a caller sorts only what
// it keeps.
func (r *Retriever) candidates(query string, k int) []Scored {
	g := r.Graph

	q := g.analyse(query)

	// Coarse stage: the union of both searches' top coarseK, aliases
	// backtracked to primaries. Only membership matters — each search
	// returns its set unordered, and the fine stage rescores every
	// candidate.
	coarse := [2][]index.Hit{g.lex.Search(q.tokens, coarseK), g.vec.Search(&q.vec, coarseK)}
	seen := make([]bool, len(g.order))
	scored := make([]Scored, 0, len(coarse[0])+len(coarse[1]))
	for _, hits := range coarse {
		for _, h := range hits {
			n := g.primary(g.order[h.Ord])
			if seen[n.ord] {
				continue
			}
			seen[n.ord] = true
			scored = append(scored, Scored{Node: n, Score: r.fineScore(n, &q)})
		}
	}
	return index.Best(scored, k, ranksBefore)
}

// question is one question's analysis, shared by both coarse searches and
// every fine-stage score: its text, its content tokens in order (what the
// lexical search reads), its embedding, the number of its distinct content
// tokens and the ids of those the graph's vocabulary holds, ascending. A
// token the vocabulary does not hold is in no node's text, so it only
// counts against the question's coverage.
type question struct {
	text     string
	tokens   []string
	vec      embed.Vector
	distinct int
	ids      []int32
}

// analyse tokenizes, embeds and looks up a question once, for one
// retrieval over g.
func (g *Graph) analyse(text string) question {
	tokens := textutil.Tokenize(text)
	q := question{text: text, vec: embed.Tokens(tokens)}
	q.tokens = slices.DeleteFunc(tokens, textutil.IsStopword)
	q.ids = make([]int32, 0, len(q.tokens))
	for i, t := range q.tokens {
		if slices.Contains(q.tokens[:i], t) {
			continue
		}
		q.distinct++
		if id, ok := g.vocab[t]; ok {
			q.ids = append(q.ids, id)
		}
	}
	slices.Sort(q.ids)
	return q
}

// fineScore is the fine stage's weighted matching score of one candidate:
// the share of the name's content tokens the question covers and the share
// of the question's the node's text covers (lexical), the cosine of the two
// embeddings (semantic), and the LLM's relevance judgment. Both shares
// count the ids two ascending lists have in common.
func (r *Retriever) fineScore(n *Node, q *question) float64 {
	var nameCovered, queryCovered float64
	if len(n.nameTokens) > 0 {
		nameCovered = float64(commonIDs(n.nameTokens, q.ids)) / float64(len(n.nameTokens))
	}
	if q.distinct > 0 {
		queryCovered = float64(commonIDs(q.ids, n.contentTokens)) / float64(q.distinct)
	}
	lexScore := nameCovered*0.6 + queryCovered*0.4
	semScore := n.vec.Dot(&q.vec)
	if semScore < 0 {
		semScore = 0
	}
	// The LLM relevance judgment concentrates around the mean of the
	// two mechanical signals — it mostly agrees, with bounded noise.
	llmScore := r.Client.ScoreKey(n.relKey.Then(q.text), 0, 1, (lexScore+semScore)/2)
	return lexWeight*lexScore + semWeight*semScore + llmWeight*llmScore
}

// commonIDs counts the ids two ascending, duplicate-free lists share.
func commonIDs(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// RetrieveColumnsScoped retrieves column nodes belonging to one table —
// the path agents take once the proxy has fixed the target table. Without
// scoping, homonymous columns from sibling tables (every table has a
// net_margin) crowd the candidate list. It returns the first topK distinct
// columns of the table, best score first, that the coarseK retrieved nodes
// are or stand for.
//
// Only the retrieved nodes that are or stand for a column of the table
// are ranked: they are filtered to the front of the slice the cut returned,
// sorted there, and de-duplicated into the front of that prefix, so the
// call allocates no list of its own.
func (r *Retriever) RetrieveColumnsScoped(query, tableName string, topK int) []Scored {
	prefix := "column:" + strings.ToLower(tableName) + "."
	g := r.Graph
	kept := slices.DeleteFunc(r.candidates(query, coarseK), func(s Scored) bool {
		col, ok := g.columnOf(s.Node)
		return !ok || !strings.HasPrefix(col.ID, prefix)
	})
	slices.SortFunc(kept, byRank)
	out := kept[:0] // written behind the read position
	for _, s := range kept {
		col, _ := g.columnOf(s.Node)
		if slices.ContainsFunc(out, func(o Scored) bool { return o.Node == col }) {
			continue
		}
		out = append(out, Scored{Node: col, Score: s.Score})
		if len(out) == topK {
			break
		}
	}
	if len(out) == 0 {
		return nil // not an empty window holding the candidate list
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
