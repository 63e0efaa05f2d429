// Package llm provides the simulated large language model substrate that
// stands in for the GPT-4/Qwen-2.5/LLaMA-3.1 APIs the paper uses (see
// DESIGN.md, substitution table). The simulator is deterministic: all
// stochastic residual-error draws flow from a splitmix64 PRNG keyed by
// task identifiers, so every experiment is exactly reproducible.
//
// The package deliberately does NOT understand language. Task-specific
// generation (DSL translation, SQL synthesis, knowledge summarization)
// is mechanical work done by the calling modules over whatever context
// they assembled; this package contributes the two things a model swap
// changes in the paper's experiments — a capability profile and residual
// error — plus token accounting for the cost metrics.
package llm

// Rand is a splitmix64 PRNG. It is tiny, fast, and deterministic across
// platforms, which math/rand's global state does not guarantee between
// seedings in concurrent tests.
type Rand struct {
	seed  uint64 // immutable; keys order-independent Draw outcomes
	state uint64 // advances with every sequential draw
}

// NewRand seeds a generator from an arbitrary string.
func NewRand(seed string) *Rand {
	h := hash64(seed)
	return &Rand{seed: h, state: h}
}

// Key is the FNV-1a hash of a judgment or draw key, resumable: a caller
// that scores many keys with a common prefix hashes the prefix once.
// KeyOf(a).Then(b) == KeyOf(a + b).
type Key uint64

// KeyOf hashes s.
func KeyOf(s string) Key {
	const offset = 14695981039346656037
	return Key(offset).Then(s)
}

// Then continues the hash over the bytes of s.
func (k Key) Then(s string) Key {
	const prime = 1099511628211
	h := uint64(k)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return Key(h)
}

// hash64 is FNV-1a, the same stable string hash used by the embed package.
func hash64(s string) uint64 { return uint64(KeyOf(s)) }

// next advances the splitmix64 state.
func (r *Rand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("llm: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// NormFloat64 returns an approximately standard-normal value using the
// sum of 12 uniforms (Irwin–Hall); adequate for synthetic noise.
func (r *Rand) NormFloat64() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Draw returns a deterministic Bernoulli outcome for the given key and
// probability, independent of call order. Two calls with the same seed
// and key always agree; distinct keys are effectively independent.
func (r *Rand) Draw(key string, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := hash64(key) ^ r.seed
	// One splitmix64 scramble of the combined hash.
	z := h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	return u < p
}
