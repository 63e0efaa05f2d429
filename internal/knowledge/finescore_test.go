package knowledge

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"datalab/internal/embed"
	"datalab/internal/llm"
	"datalab/internal/textutil"
)

// stringFineScore is the fine stage's score as it was computed over token
// strings, before the graph interned its vocabulary: the node's distinct
// name tokens and its content-token set are derived from its text as
// indexNode derives its ids, the question's distinct content tokens are
// kept in order of appearance, and each share counts string matches.
func stringFineScore(r *Retriever, n *Node, query string) float64 {
	name := textutil.Tokenize(n.Name)
	fine := slices.Concat(name, textutil.Tokenize(n.Component("description")),
		textutil.Tokenize(n.Component("usage")), textutil.Tokenize(n.Component("definition")))
	contentTokens := map[string]struct{}{}
	for _, t := range fine {
		if !textutil.IsStopword(t) {
			contentTokens[t] = struct{}{}
		}
	}
	var nameTokens []string
	for _, t := range name {
		if !textutil.IsStopword(t) && !slices.Contains(nameTokens, t) {
			nameTokens = append(nameTokens, t)
		}
	}

	qTokens := textutil.Tokenize(query)
	qVec := embed.Tokens(qTokens)
	qTokens = slices.DeleteFunc(qTokens, textutil.IsStopword)
	var qDistinct []string
	for _, t := range qTokens {
		if !slices.Contains(qDistinct, t) {
			qDistinct = append(qDistinct, t)
		}
	}

	var nameCovered, queryCovered float64
	if len(nameTokens) > 0 {
		hit := 0
		for _, t := range nameTokens {
			if slices.Contains(qDistinct, t) {
				hit++
			}
		}
		nameCovered = float64(hit) / float64(len(nameTokens))
	}
	if len(qDistinct) > 0 {
		hit := 0
		for _, t := range qDistinct {
			if _, ok := contentTokens[t]; ok {
				hit++
			}
		}
		queryCovered = float64(hit) / float64(len(qDistinct))
	}
	lexScore := nameCovered*0.6 + queryCovered*0.4
	semScore := n.vec.Dot(&qVec)
	if semScore < 0 {
		semScore = 0
	}
	llmScore := r.Client.ScoreKey(n.relKey.Then(query), 0, 1, (lexScore+semScore)/2)
	return lexWeight*lexScore + semWeight*semScore + llmWeight*llmScore
}

// TestFineScoreMatchesStringTokens holds fineScore, which counts shared
// token ids, to stringFineScore bit for bit: over random graphs whose
// texts repeat tokens, mix case and hold stopwords, and whose nodes are
// replaced; for questions with tokens in no node's text; and across a
// clone and its original that each go on to add tokens of their own, so
// the same id names different tokens in the two.
func TestFineScoreMatchesStringTokens(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := func(prefix string, n int) []string {
			words := make([]string, n)
			for i := range words {
				words[i] = fmt.Sprintf("%s%c%c", prefix, 'a'+rng.Intn(26), 'a'+rng.Intn(26))
			}
			return words
		}
		shared, ownOriginal, ownClone, unknown := pool("w", 30), pool("o", 10), pool("c", 10), pool("z", 10)
		stop := []string{"the", "of", "by", "and", "per"}
		text := func(maxWords int, pools ...[]string) string {
			words := make([]string, rng.Intn(maxWords+1))
			for i := range words {
				p := pools[rng.Intn(len(pools))]
				words[i] = p[rng.Intn(len(p))]
				if rng.Intn(4) == 0 {
					words[i] = strings.ToUpper(words[i][:1]) + words[i][1:]
				}
			}
			return strings.Join(words, []string{" ", "_", ", "}[rng.Intn(3)])
		}
		types := []NodeType{NodeColumn, NodeTable, NodeJargon, NodeValue, NodeAlias}
		addNodes := func(g *Graph, count int, pools ...[]string) {
			for i := 0; i < count; i++ {
				n := &Node{
					ID:   fmt.Sprintf("node:%d", rng.Intn(3*count)), // some IDs are replaced
					Type: types[rng.Intn(len(types))],
					Name: text(3, pools...),
					Components: map[string]string{
						"description": text(8, pools...),
						"usage":       text(5, pools...),
						"definition":  text(4, pools...),
					},
				}
				g.addNode(n)
			}
		}

		original := NewGraph()
		addNodes(original, 40, shared, stop)
		clone := original.Clone()
		before := len(original.vocab)
		addNodes(clone, 20, shared, ownClone, stop)
		if len(original.vocab) != before {
			t.Fatalf("seed %d: the clone's adds grew the original's vocabulary from %d to %d", seed, before, len(original.vocab))
		}
		addNodes(original, 20, shared, ownOriginal, stop)

		client := llm.NewClient(llm.GPT4, fmt.Sprint("finescore-", seed))
		for label, g := range map[string]*Graph{"original": original, "clone": clone} {
			r := NewRetriever(g, client)
			for i := 0; i < 30; i++ {
				query := text(10, shared, ownOriginal, ownClone, unknown, stop)
				q := g.analyse(query)
				for _, n := range g.order {
					got, want := r.fineScore(n, &q), stringFineScore(r, n, query)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d, %s, %q: %s scores %v, the string form %v", seed, label, query, n.ID, got, want)
					}
				}
			}
		}
	}
}
