// Package embed provides deterministic text embeddings used wherever the
// paper's system calls an embedding model (StarRocks vector search, the
// M3-Embedding SES metric, semantic context retrieval).
//
// The embedding is a feature-hashed bag of tokens and token bigrams: each
// token is hashed with FNV-1a into a fixed-dimension vector with a signed
// contribution, then the vector is L2-normalized. This preserves the single
// property the platform relies on — texts sharing vocabulary land near each
// other in cosine space — while staying fully offline and deterministic.
package embed

import (
	"math"

	"datalab/internal/textutil"
)

// Dim is the embedding dimensionality. 256 keeps hash collisions rare for
// the vocabulary sizes in this repo while keeping cosine cheap.
const Dim = 256

// Vector is a fixed-size embedding.
type Vector [Dim]float64

// Text embeds s. The zero vector is returned for empty/stopword-only input.
func Text(s string) Vector {
	return Tokens(textutil.Tokenize(s))
}

// Tokens embeds a text already split by textutil.Tokenize, for callers
// that need the tokens anyway: Text(s) == Tokens(textutil.Tokenize(s)).
func Tokens(tokens []string) Vector {
	var v Vector
	for _, t := range tokens {
		addFeature(&v, fnv1a(fnvOffset, t), 1.0)
	}
	// Bigrams capture short phrases ("gross margin") with lower weight;
	// the feature is the two tokens joined by a space, hashed in place.
	for i := 1; i < len(tokens); i++ {
		addFeature(&v, fnv1a(fnv1a(fnv1a(fnvOffset, tokens[i-1]), " "), tokens[i]), 0.5)
	}
	normalize(&v)
	return v
}

func addFeature(v *Vector, h uint64, weight float64) {
	idx := int(h % Dim)
	sign := 1.0
	if (h>>32)&1 == 1 {
		sign = -1.0
	}
	v[idx] += sign * weight
}

func normalize(v *Vector) {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	if sum == 0 {
		return
	}
	inv := 1 / math.Sqrt(sum)
	for i := range v {
		v[i] *= inv
	}
}

const fnvOffset = 14695981039346656037

// fnv1a continues the FNV-1a hash h over the bytes of s.
func fnv1a(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Cosine returns the cosine similarity of a and b in [-1, 1]. Both inputs
// are expected to be normalized (as produced by Text); the zero vector
// yields 0 against anything.
func Cosine(a, b Vector) float64 {
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	return dot
}

// Term is one non-zero component of an embedding.
type Term struct {
	Index uint8
	Value float64
}

// Term.Index must be able to name every component.
const _ = uint8(Dim - 1)

// Sparse is an embedding as its non-zero components in index order — the
// form stored embeddings take: a node's text fills about 25 of the Dim
// hashed components.
type Sparse []Term

// Sparse returns v's non-zero components.
func (v *Vector) Sparse() Sparse {
	n := 0
	for _, x := range v {
		if x != 0 {
			n++
		}
	}
	s := make(Sparse, 0, n)
	for i, x := range v {
		if x != 0 {
			s = append(s, Term{uint8(i), x})
		}
	}
	return s
}

// Dot returns Cosine(*q, v) for the vector v that s came from, bit for bit:
// the terms it skips are ±0, and adding one never changes the running sum.
func (s Sparse) Dot(q *Vector) float64 {
	var dot float64
	for _, t := range s {
		dot += q[t.Index] * t.Value
	}
	return dot
}

// Similarity is a convenience wrapper embedding both texts and returning
// their cosine similarity clamped to [0, 1]. It is the SES metric used for
// knowledge-quality evaluation (§VII-C.1): 1 means identical, 0 irrelevant.
func Similarity(a, b string) float64 {
	c := Cosine(Text(a), Text(b))
	if c < 0 {
		return 0
	}
	return c
}
