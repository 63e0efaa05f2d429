package llm

import (
	"sync"

	"datalab/internal/textutil"
)

// Usage is a snapshot of accumulated token consumption.
type Usage struct {
	PromptTokens     int
	CompletionTokens int
	Calls            int
}

// Total returns prompt + completion tokens.
func (u Usage) Total() int { return u.PromptTokens + u.CompletionTokens }

// Quality captures the measurable context-quality features that determine
// a simulated call's success probability. This struct is the heart of the
// substitution: the paper's ablations vary exactly these features, and the
// simulator makes success depend on them mechanically.
type Quality struct {
	// SchemaLinked is the fraction of required schema elements present in
	// the provided context (1 when linking is perfect or not applicable).
	SchemaLinked float64
	// KnowledgeLevel is 0 (none), ~0.5 (partial: descriptions/usage/tags),
	// or 1 (full, incl. derived-column calculation logic) — §VII-C's S1-S3.
	KnowledgeLevel float64
	// Ambiguity in [0,1] measures how much the task depends on knowledge
	// the raw schema does not carry (cryptic column names, jargon).
	Ambiguity float64
	// Distraction in [0,1] measures irrelevant context volume; irrelevant
	// context degrades reasoning (§V cites Shi et al.).
	Distraction float64
	// Structured reports whether inter-agent information arrived in the
	// structured six-field format rather than free-form NL.
	Structured bool
	// Iterations is the number of refinement rounds available (execution
	// feedback loops); each extra round recovers some failures.
	Iterations int
}

// Clamp returns q with all fields forced into their legal ranges; zero
// values mean "not applicable" and are promoted to neutral 1.0 for the
// multiplicative features.
func (q Quality) clamped() Quality {
	c := q
	if c.SchemaLinked <= 0 {
		c.SchemaLinked = 1
	}
	if c.SchemaLinked > 1 {
		c.SchemaLinked = 1
	}
	if c.KnowledgeLevel < 0 {
		c.KnowledgeLevel = 0
	}
	if c.KnowledgeLevel > 1 {
		c.KnowledgeLevel = 1
	}
	if c.Ambiguity < 0 {
		c.Ambiguity = 0
	}
	if c.Ambiguity > 1 {
		c.Ambiguity = 1
	}
	if c.Distraction < 0 {
		c.Distraction = 0
	}
	if c.Distraction > 1 {
		c.Distraction = 1
	}
	if c.Iterations < 0 {
		c.Iterations = 0
	}
	return c
}

// Client is one simulated LLM endpoint: a profile plus deterministic
// randomness plus token accounting. It is safe for concurrent use.
type Client struct {
	profile Profile
	rng     *Rand

	mu    sync.Mutex
	usage Usage
}

// NewClient creates a client for the given profile. The seed isolates
// experiments from each other: the same (profile, seed, task-key) triple
// always yields the same outcome.
func NewClient(profile Profile, seed string) *Client {
	return &Client{profile: profile, rng: NewRand(profile.Name + "\x00" + seed)}
}

// Profile returns the client's capability profile.
func (c *Client) Profile() Profile { return c.profile }

// Usage returns accumulated token usage.
func (c *Client) Usage() Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usage
}

// ResetUsage zeroes the counters (used between experiment arms).
func (c *Client) ResetUsage() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.usage = Usage{}
}

// Charge records one call's prompt and completion text for token
// accounting. Returns the prompt token count for convenience.
func (c *Client) Charge(prompt, completion string) int {
	pt := textutil.CountTokens(prompt)
	ct := textutil.CountTokens(completion)
	c.mu.Lock()
	c.usage.PromptTokens += pt
	c.usage.CompletionTokens += ct
	c.usage.Calls++
	c.mu.Unlock()
	return pt
}

// SuccessProbability computes the probability that a call with the given
// base skill and context quality succeeds. The functional form encodes
// the paper's qualitative claims:
//
//   - skill is the model ceiling for the task family;
//   - missing schema links cap success hard (you cannot aggregate a
//     column the context never surfaced);
//   - ambiguity hurts in proportion to how much knowledge is missing;
//   - irrelevant context (no FSM pruning / no DAG pruning) multiplies in
//     a distraction penalty;
//   - unstructured NL communication loses a further slice to
//     miscommunication;
//   - each refinement iteration retries the residual failure mass.
func (c *Client) SuccessProbability(skill float64, q Quality) float64 {
	q = q.clamped()
	p := skill
	p *= q.SchemaLinked
	p *= 1 - q.Ambiguity*(1-q.KnowledgeLevel)
	p *= 1 - 0.5*q.Distraction
	if !q.Structured {
		p *= 0.95
	}
	if p < 0 {
		p = 0
	}
	// Iterative refinement: each round independently recovers a fraction
	// of failures, with diminishing returns. The 0.25 recovery rate
	// reflects that execution feedback only catches failures that
	// manifest as errors, not silently wrong answers.
	fail := 1 - p
	for i := 0; i < q.Iterations && i < 5; i++ {
		fail *= 1 - 0.25*p
	}
	p = 1 - fail
	if p > 0.995 {
		p = 0.995 // models are never perfect
	}
	return p
}

// Draw returns the deterministic Bernoulli outcome for (key, p) under
// this client's seed, without token accounting. Callers use it for
// auxiliary events (sticky failures, legality checks) keyed separately
// from the main task outcome.
func (c *Client) Draw(key string, p float64) bool {
	return c.rng.Draw(key, p)
}

// Attempt performs one simulated call: it charges tokens and returns
// whether the call succeeds. key must uniquely identify the semantic task
// instance (benchmark item + method + stage) so that outcomes are stable
// across runs and independent of evaluation order.
func (c *Client) Attempt(key, prompt, completion string, skill float64, q Quality) bool {
	c.Charge(prompt, completion)
	return c.rng.Draw(key, c.SuccessProbability(skill, q))
}

// Score returns a deterministic pseudo-judgment in [lo, hi] for the given
// key — the simulator's stand-in for LLM-as-judge scoring (self-
// calibration in Algorithm 1, LLaMA-3-Eval in InsightBench). quality in
// [0,1] shifts the score mass toward hi.
func (c *Client) Score(key string, lo, hi, quality float64) float64 {
	return c.ScoreKey(KeyOf(key), lo, hi, quality)
}

// ScoreKey is Score for a key already hashed: Score(s, …) is
// ScoreKey(KeyOf(s), …).
func (c *Client) ScoreKey(key Key, lo, hi, quality float64) float64 {
	if quality < 0 {
		quality = 0
	}
	if quality > 1 {
		quality = 1
	}
	h := uint64(key) ^ c.rng.seed
	z := h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53) // uniform noise in [0,1)
	// Score concentrates around quality with +-0.15 noise.
	v := quality + (u-0.5)*0.3
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return lo + v*(hi-lo)
}
