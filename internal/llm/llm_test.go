package llm

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a := NewRand("seed")
	b := NewRand("seed")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand("other")
	same := true
	a2 := NewRand("seed")
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandUniformish(t *testing.T) {
	r := NewRand("uniform")
	var sum float64
	n := 10000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestDrawOrderIndependent(t *testing.T) {
	r := NewRand("draws")
	first := r.Draw("task-42", 0.5)
	// Burn sequential state; Draw must not be affected.
	for i := 0; i < 57; i++ {
		r.Float64()
	}
	if got := r.Draw("task-42", 0.5); got != first {
		t.Error("Draw outcome changed after sequential draws")
	}
}

func TestDrawExtremes(t *testing.T) {
	r := NewRand("x")
	if r.Draw("k", 0) {
		t.Error("p=0 drew true")
	}
	if !r.Draw("k", 1) {
		t.Error("p=1 drew false")
	}
}

func TestDrawFrequency(t *testing.T) {
	r := NewRand("freq")
	hits := 0
	n := 5000
	for i := 0; i < n; i++ {
		if r.Draw(string(rune(i))+"key", 0.7) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.7) > 0.03 {
		t.Errorf("empirical rate = %v, want ~0.7", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand("perm")
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestProfileByName(t *testing.T) {
	for _, p := range Profiles() {
		got, err := ProfileByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Errorf("ProfileByName(%q) = %v, %v", p.Name, got, err)
		}
	}
	if _, err := ProfileByName("gpt-5000"); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestProfileOrdering(t *testing.T) {
	// Figure 6's claim: GPT-4 >= Qwen-2.5 >= LLaMA-3.1 on SQL and code.
	if !(GPT4.SQLGeneration > Qwen25.SQLGeneration && Qwen25.SQLGeneration > LLaMA31.SQLGeneration) {
		t.Error("SQL skill ordering violated")
	}
	if !(GPT4.CodeGeneration > Qwen25.CodeGeneration && Qwen25.CodeGeneration > LLaMA31.CodeGeneration) {
		t.Error("code skill ordering violated")
	}
	// VisEval's surprise: LLaMA-3.1 slightly best at vis.
	if !(LLaMA31.VisLiteracy >= GPT4.VisLiteracy) {
		t.Error("LLaMA-3.1 should be >= GPT-4 on vis literacy")
	}
}

func TestSuccessProbabilityMonotonicity(t *testing.T) {
	c := NewClient(GPT4, "test")
	base := Quality{SchemaLinked: 1, KnowledgeLevel: 1, Ambiguity: 0.5}
	p0 := c.SuccessProbability(0.9, base)

	worseLink := base
	worseLink.SchemaLinked = 0.5
	if c.SuccessProbability(0.9, worseLink) >= p0 {
		t.Error("worse schema linking should lower success")
	}
	noKnow := base
	noKnow.KnowledgeLevel = 0
	if c.SuccessProbability(0.9, noKnow) >= p0 {
		t.Error("removing knowledge under ambiguity should lower success")
	}
	distracted := base
	distracted.Distraction = 1
	if c.SuccessProbability(0.9, distracted) >= p0 {
		t.Error("distraction should lower success")
	}
	unstructured := base
	unstructured.Structured = false
	structured := base
	structured.Structured = true
	if c.SuccessProbability(0.9, unstructured) >= c.SuccessProbability(0.9, structured) {
		t.Error("unstructured communication should lower success")
	}
	retried := base
	retried.Iterations = 3
	if c.SuccessProbability(0.9, retried) <= p0 {
		t.Error("refinement iterations should raise success")
	}
}

func TestSuccessProbabilityNoAmbiguityIgnoresKnowledge(t *testing.T) {
	c := NewClient(GPT4, "test")
	a := c.SuccessProbability(0.9, Quality{SchemaLinked: 1, Ambiguity: 0, KnowledgeLevel: 0, Structured: true})
	b := c.SuccessProbability(0.9, Quality{SchemaLinked: 1, Ambiguity: 0, KnowledgeLevel: 1, Structured: true})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("knowledge should not matter without ambiguity: %v vs %v", a, b)
	}
}

func TestSuccessProbabilityBounds(t *testing.T) {
	c := NewClient(LLaMA31, "bounds")
	f := func(skill, link, know, amb, dis float64, structured bool, iters int) bool {
		q := Quality{
			SchemaLinked:   math.Abs(math.Mod(link, 1)),
			KnowledgeLevel: math.Abs(math.Mod(know, 1)),
			Ambiguity:      math.Abs(math.Mod(amb, 1)),
			Distraction:    math.Abs(math.Mod(dis, 1)),
			Structured:     structured,
			Iterations:     iters % 10,
		}
		s := math.Abs(math.Mod(skill, 1))
		p := c.SuccessProbability(s, q)
		return p >= 0 && p <= 0.995
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAttemptChargesTokens(t *testing.T) {
	c := NewClient(GPT4, "tok")
	c.Attempt("k", "prompt text of some length", "completion", 0.9, Quality{})
	u := c.Usage()
	if u.Calls != 1 || u.PromptTokens == 0 || u.CompletionTokens == 0 {
		t.Errorf("usage = %+v", u)
	}
}

func TestAttemptDeterministic(t *testing.T) {
	c1 := NewClient(GPT4, "same-seed")
	c2 := NewClient(GPT4, "same-seed")
	q := Quality{SchemaLinked: 1, Ambiguity: 0.3}
	for i := 0; i < 50; i++ {
		k := "task" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if c1.Attempt(k, "p", "c", 0.8, q) != c2.Attempt(k, "p", "c", 0.8, q) {
			t.Fatal("attempts diverged for identical clients")
		}
	}
}

func TestAttemptProfileSeparation(t *testing.T) {
	// Different profiles must see different outcome streams even with the
	// same experiment seed: the profile name is folded into the RNG seed.
	cg := NewClient(GPT4, "exp")
	cl := NewClient(LLaMA31, "exp")
	diff := 0
	for i := 0; i < 200; i++ {
		k := "t" + string(rune(i))
		if cg.rng.Draw(k, 0.5) != cl.rng.Draw(k, 0.5) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("profiles share an outcome stream")
	}
}

func TestScoreTracksQuality(t *testing.T) {
	c := NewClient(GPT4, "judge")
	var lowSum, highSum float64
	n := 200
	for i := 0; i < n; i++ {
		k := "item" + string(rune(i))
		lowSum += c.Score(k, 1, 5, 0.1)
		highSum += c.Score(k, 1, 5, 0.9)
	}
	if lowSum/float64(n) >= highSum/float64(n) {
		t.Error("higher quality should yield higher mean scores")
	}
	for i := 0; i < 50; i++ {
		s := c.Score("b"+string(rune(i)), 1, 5, 0.5)
		if s < 1 || s > 5 {
			t.Fatalf("score %v out of [1,5]", s)
		}
	}
}

// TestKeyResumes: a key hashed in pieces is the key of the whole, wherever
// the split falls — empty halves included — and equals the standard
// library's FNV-1a.
func TestKeyResumes(t *testing.T) {
	f := func(s string, cut uint8) bool {
		i := int(cut) % (len(s) + 1)
		h := fnv.New64a()
		h.Write([]byte(s))
		return KeyOf(s[:i]).Then(s[i:]) == KeyOf(s) && uint64(KeyOf(s)) == h.Sum64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{"", "rel:column:t.c|", "judge|DataLab|task-7"} {
		if KeyOf("").Then(s) != KeyOf(s) || KeyOf(s).Then("") != KeyOf(s) {
			t.Errorf("an empty half changes the key of %q", s)
		}
	}
}

// TestScoreIsScoreKey pins Score to its keyed form for the three shapes
// of judgment key the repo builds, with the key hashed whole and resumed
// after its prefix, and both to the value Score returned before it had a
// keyed form.
func TestScoreIsScoreKey(t *testing.T) {
	c := NewClient(GPT4, "keyed")
	for _, k := range []struct {
		prefix, rest    string
		lo, hi, quality float64
		want            float64
	}{
		{"rel:column:23_customer_bg.shouldincome_after|", "total income after tax in 2024", 0, 1, 0.37, 0.25833179360716363},
		{"calib:", "script-0042", 1, 5, 0.8, 4.680742756923121},
		{"judge|", "DataLab|task-17", 0, 1, 0.55, 0.6116644965678509},
	} {
		want := c.Score(k.prefix+k.rest, k.lo, k.hi, k.quality)
		if want != k.want {
			t.Errorf("Score(%q) = %v, want %v", k.prefix+k.rest, want, k.want)
		}
		if got := c.ScoreKey(KeyOf(k.prefix+k.rest), k.lo, k.hi, k.quality); got != want {
			t.Errorf("ScoreKey(KeyOf(%q)) = %v, Score = %v", k.prefix+k.rest, got, want)
		}
		if got := c.ScoreKey(KeyOf(k.prefix).Then(k.rest), k.lo, k.hi, k.quality); got != want {
			t.Errorf("ScoreKey(KeyOf(%q).Then(%q)) = %v, Score = %v", k.prefix, k.rest, got, want)
		}
	}
}
