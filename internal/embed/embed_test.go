package embed

import (
	"hash/fnv"
	"math"
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
