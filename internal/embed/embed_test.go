package embed

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"datalab/internal/textutil"
)

func TestTextDeterministic(t *testing.T) {
	a := Text("monthly revenue by product")
	b := Text("monthly revenue by product")
	if a != b {
		t.Error("Text is not deterministic")
	}
}

func TestTextNormalized(t *testing.T) {
	v := Text("quarterly gross margin")
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("embedding norm^2 = %v, want 1", sum)
	}
}

func TestTextEmptyIsZero(t *testing.T) {
	v := Text("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty text should embed to the zero vector")
		}
	}
}

func TestCosineSelf(t *testing.T) {
	v := Text("customer lifetime value")
	if got := Cosine(v, v); math.Abs(got-1) > 1e-9 {
		t.Errorf("Cosine(v, v) = %v, want 1", got)
	}
}

func TestSimilarityOrdering(t *testing.T) {
	// Related texts must be scored higher than unrelated ones — this is the
	// only geometric property the retrieval layer depends on.
	query := "income of the product this year"
	related := "should income after tax, the revenue column of the product table"
	unrelated := "kubernetes pod scheduling latency histogram"
	sRel := Similarity(query, related)
	sUnrel := Similarity(query, unrelated)
	if sRel <= sUnrel {
		t.Errorf("related %v <= unrelated %v", sRel, sUnrel)
	}
}

func TestSimilarityIdentical(t *testing.T) {
	if got := Similarity("exact same text", "exact same text"); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical texts = %v, want 1", got)
	}
}

func TestSimilarityClamped(t *testing.T) {
	f := func(a, b string) bool {
		s := Similarity(a, b)
		return s >= 0 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCosineSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := Text(a), Text(b)
		return math.Abs(Cosine(va, vb)-Cosine(vb, va)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTokensMatchesJoinedBigrams pins Tokens — which hashes a bigram as
// two tokens and a space without building the string — to the definition:
// every token with weight 1, then every space-joined bigram with weight
// 0.5, each hashed whole with FNV-1a. Equality is bit for bit.
func TestTokensMatchesJoinedBigrams(t *testing.T) {
	reference := func(s string) Vector {
		var v Vector
		add := func(feature string, weight float64) {
			h := fnv.New64a()
			h.Write([]byte(feature))
			addFeature(&v, h.Sum64(), weight)
		}
		tokens := textutil.Tokenize(s)
		for _, tok := range tokens {
			add(tok, 1.0)
		}
		for _, g := range textutil.NGrams(tokens, 2) {
			add(g, 0.5)
		}
		normalize(&v)
		return v
	}
	for _, s := range []string{
		"", "revenue", "gross margin", "total shouldincome_after by prod_class4_name in 2023",
		"Größe Über alles 日本語", "a a a a b a",
	} {
		if Text(s) != reference(s) {
			t.Errorf("Text(%q) differs from the joined-bigram definition", s)
		}
		if Tokens(textutil.Tokenize(s)) != Text(s) {
			t.Errorf("Tokens(Tokenize(%q)) != Text", s)
		}
	}
}

// cancellingPair finds two tokens hashed to one component with opposite
// signs, so a text holding both leaves that component at exactly 0.
func cancellingPair(t *testing.T) (a, b string) {
	t.Helper()
	type slot struct {
		idx uint64
		neg bool
	}
	first := map[slot]string{}
	for i := 0; i < 10000; i++ {
		tok := "tok" + strconv.Itoa(i)
		h := fnv1a(fnvOffset, tok)
		s := slot{h % Dim, (h>>32)&1 == 1}
		if other, ok := first[slot{s.idx, !s.neg}]; ok {
			return other, tok
		}
		first[s] = tok
	}
	t.Fatal("no cancelling pair among 10000 tokens")
	return "", ""
}

// TestSparseDotEqualsCosine holds the stored form to the dense one: over
// random token lists — empty, stopword-only, repeated tokens, a pair whose
// shared component cancels to exactly 0 — Sparse lists the non-zero
// components in index order and nothing else, and its Dot against a dense
// question is Cosine with the same bits.
func TestSparseDotEqualsCosine(t *testing.T) {
	a, b := cancellingPair(t)
	vocab := []string{a, b, "the", "of", "by", "revenue", "income", "margin", "net", "gross", "region", "2024", "prod_class4_name"}
	lists := [][]string{nil, {}, {"the"}, {"the", "of", "the"}, {a, b}, {b, a, b, a}, {a, b, "revenue"}, {"revenue", "revenue", "revenue"}}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		l := make([]string, rng.Intn(14))
		for j := range l {
			l[j] = vocab[rng.Intn(len(vocab))]
		}
		lists = append(lists, l)
	}

	var cancelled Vector
	addFeature(&cancelled, fnv1a(fnvOffset, a), 1)
	addFeature(&cancelled, fnv1a(fnvOffset, b), 1)
	if cancelled != (Vector{}) {
		t.Fatalf("%q and %q do not cancel", a, b)
	}
	if v := Tokens([]string{a, b}); len(v.Sparse()) != 1 {
		t.Errorf("Tokens(%q, %q) has %d sparse terms, want only the bigram's", a, b, len(v.Sparse()))
	}

	for _, doc := range lists {
		v := Tokens(doc)
		s := v.Sparse()
		var back Vector
		for i, term := range s {
			if term.Value == 0 || (i > 0 && s[i-1].Index >= term.Index) {
				t.Fatalf("Sparse of %q: term %d = %+v after %+v", doc, i, term, s[max(i-1, 0)])
			}
			back[term.Index] = term.Value
		}
		if back != v {
			t.Fatalf("Sparse of %q does not round-trip to the dense vector", doc)
		}
		for _, question := range lists {
			q := Tokens(question)
			if got, want := s.Dot(&q), Cosine(q, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("doc %q, question %q: Dot = %v (%#x), Cosine = %v (%#x)",
					doc, question, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
