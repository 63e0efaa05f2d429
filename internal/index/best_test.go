package index

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// FuzzBest holds Best to a full sort: for n hits whose scores come from a
// few values, so that ties straddle the cut, and every k from 0 to n+1, the
// set Best returns is the sorted list's first k, the slice it rearranged is
// still a permutation of its input, and shuffling the input first changes
// nothing in the set.
func FuzzBest(f *testing.F) {
	for _, seed := range []struct {
		n, k, values uint16
		seed         int64
	}{
		{0, 0, 1, 1}, {0, 1, 1, 1}, {1, 0, 1, 2}, {1, 1, 1, 2}, {1, 2, 1, 2},
		{2, 1, 1, 3}, {10, 3, 1, 4}, {10, 5, 2, 5}, {150, 150, 3, 6},
		{152, 150, 3, 7}, {165, 150, 4, 8}, {400, 10, 2, 9}, {400, 399, 5, 10},
		{400, 401, 3, 11}, {400, 200, 1, 12},
	} {
		f.Add(seed.n, seed.k, seed.values, seed.seed)
	}
	f.Fuzz(func(t *testing.T, n, k, values uint16, seed int64) {
		n %= 401
		k %= n + 2
		values = 1 + values%5
		rng := rand.New(rand.NewSource(seed))
		input := make([]Hit, n)
		for i := range input {
			input[i] = Hit{ID: fmt.Sprintf("h%03d", i), Ord: int32(i), Score: float64(rng.Intn(int(values)))}
		}
		rng.Shuffle(len(input), func(i, j int) { input[i], input[j] = input[j], input[i] })

		want := slices.SortedFunc(slices.Values(input), compareHits)[:min(int(k), len(input))]
		got := checkBest(t, input, int(k), want)

		shuffled := slices.Clone(input)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if again := checkBest(t, shuffled, int(k), want); !slices.Equal(again, got) {
			t.Fatalf("n=%d k=%d: a shuffled input selects %v, the input %v", n, k, again, got)
		}
	})
}

// checkBest runs Best on a copy of input and fails unless it returns the
// set want (ranked) and leaves the copy a permutation of input. It returns
// the set ranked.
func checkBest(t *testing.T, input []Hit, k int, want []Hit) []Hit {
	t.Helper()
	s := slices.Clone(input)
	best := Best(s, k, hitBefore)
	if len(best) != len(want) || (len(best) > 0 && &best[0] != &s[0]) {
		t.Fatalf("n=%d k=%d: Best returned %d hits, not the first %d of its input", len(input), k, len(best), len(want))
	}
	got := slices.SortedFunc(slices.Values(best), compareHits)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d k=%d: Best selects %v, a full sort's first k are %v", len(input), k, got, want)
	}
	if !slices.Equal(slices.SortedFunc(slices.Values(s), compareHits), slices.SortedFunc(slices.Values(input), compareHits)) {
		t.Fatalf("n=%d k=%d: the slice is no longer a permutation of its input", len(input), k)
	}
	return got
}
