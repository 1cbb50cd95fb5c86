package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// same is equality in sort.Float64s's order: NaNs match each other and
// -0 ties +0.
func same(a, b float64) bool { return a == b || (a != a && b != b) }

// before is sort.Float64s's less: NaN first, then ascending.
func before(a, b float64) bool { return a < b || (a != a && b == b) }

// selectSamples is the property test's input family: every small n,
// odd and even lengths up to a few thousand, all-distinct, a few
// distinct values, all-equal, presorted and reversed runs, each also
// seasoned with NaNs and signed zeros.
func selectSamples(rng *rand.Rand) [][]float64 {
	var out [][]float64
	lengths := []int{0, 1, 2, 3, 4, 5, 16, 17, 18, 33, 128, 129, 130, 257, 1000, 1001, 4096}
	for _, n := range lengths {
		gens := map[string]func(i int) float64{
			"distinct": func(int) float64 { return rng.NormFloat64() },
			"few":      func(int) float64 { return float64(rng.Intn(3)) * 1e-3 },
			"equal":    func(int) float64 { return 0.25 },
			"sorted":   func(i int) float64 { return float64(i) },
			"reversed": func(i int) float64 { return float64(-i) },
			"zeros": func(int) float64 {
				if rng.Intn(2) == 0 {
					return math.Copysign(0, -1)
				}
				return 0
			},
		}
		for _, name := range []string{"distinct", "few", "equal", "sorted", "reversed", "zeros"} {
			gen := gens[name]
			for _, season := range []bool{false, true} {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = gen(i)
					if season && rng.Intn(8) == 0 {
						xs[i] = []float64{math.NaN(), 0, math.Copysign(0, -1)}[rng.Intn(3)]
					}
				}
				out = append(out, xs)
			}
		}
	}
	return out
}

// checkSelected asserts that, after a Select of ranks, every rank holds
// the sorted reference's element with the partition bounds around it,
// and that xs is still a permutation of the input.
func checkSelected(t *testing.T, label string, xs, ref []float64, ranks []int) {
	t.Helper()
	for _, k := range ranks {
		if !same(xs[k], ref[k]) {
			t.Fatalf("%s: rank %d = %v, sort.Float64s gives %v", label, k, xs[k], ref[k])
		}
		for i, x := range xs {
			if (i < k && before(xs[k], x)) || (i > k && before(x, xs[k])) {
				t.Fatalf("%s: rank %d = %v but index %d holds %v", label, k, xs[k], i, x)
			}
		}
	}
	perm := append([]float64(nil), xs...)
	sort.Float64s(perm)
	for i := range perm {
		if !same(perm[i], ref[i]) {
			t.Fatalf("%s: Select changed the multiset at sorted index %d: %v vs %v", label, i, perm[i], ref[i])
		}
	}
}

// TestSelectMatchesSort is the property test against sort.Float64s:
// every rank alone, then several ranks taken on one array.
func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for si, in := range selectSamples(rng) {
		ref := append([]float64(nil), in...)
		sort.Float64s(ref)
		n := len(in)
		step := 1
		if n > 200 {
			step = n / 97 // every rank of the small arrays, a spread of the large
		}
		for k := 0; k < n; k += step {
			xs := append([]float64(nil), in...)
			Select(xs, k)
			checkSelected(t, fmt.Sprintf("sample %d (n=%d)", si, n), xs, ref, []int{k})
		}
		if n == 0 {
			Select(in) // no ranks: a no-op
			continue
		}
		for trial := 0; trial < 6; trial++ {
			ranks := make([]int, 1+rng.Intn(6))
			for i := range ranks {
				ranks[i] = rng.Intn(n)
			}
			ranks = append(ranks, (n-1)/2, n/2, NearestRank(0.95, n), n-1)
			xs := append([]float64(nil), in...)
			Select(xs, ranks...)
			checkSelected(t, fmt.Sprintf("sample %d (n=%d) ranks %v", si, n, ranks), xs, ref, ranks)
		}
	}
}

// TestSelectSortFallback drives the depth-bounded fallback directly:
// with no partitions (or only a few) left, segments are sorted outright
// and the ranks still come out right.
func TestSelectSortFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for si, in := range selectSamples(rng) {
		n := len(in)
		if n == 0 {
			continue
		}
		ref := append([]float64(nil), in...)
		sort.Float64s(ref)
		for depth := 0; depth <= 3; depth++ {
			xs := append([]float64(nil), in...)
			ranks := []int{0, (n - 1) / 2, n / 2, NearestRank(0.95, n), n - 1}
			nan := 0
			for i, x := range xs {
				if x != x {
					xs[i], xs[nan] = xs[nan], x
					nan++
				}
			}
			var live []int
			for _, k := range ranks {
				if k >= nan {
					live = append(live, k)
				}
			}
			selectRanks(xs, nan, n, live, depth)
			checkSelected(t, fmt.Sprintf("sample %d (n=%d) depth %d", si, n, depth), xs, ref, ranks)
		}
	}
}

func TestSelectRankOutOfRangePanics(t *testing.T) {
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Select rank %d of 3 values did not panic", k)
				}
			}()
			Select([]float64{1, 2, 3}, k)
		}()
	}
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		want int
	}{
		{0.5, 1, 0}, {0.5, 2, 0}, {0.5, 3, 1}, {0.5, 10, 4},
		{0.95, 2, 0}, {0.95, 21, 19}, {0.95, 10000, 9499}, {1, 7, 6},
	} {
		if got := NearestRank(tc.p, tc.n); got != tc.want {
			t.Errorf("NearestRank(%v, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
}

// BenchmarkSelect compares one epoch's worth of order statistics (the
// median pair, p95 and max of one sample) by selection against a full
// sort, on distinct values and on the heavily tied samples a fleet of
// shared histories produces (55 distinct values).
func BenchmarkSelect(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		for _, kind := range []string{"distinct", "ties"} {
			rng := rand.New(rand.NewSource(3))
			in := make([]float64, n)
			for i := range in {
				in[i] = rng.Float64()
				if kind == "ties" {
					in[i] = float64(rng.Intn(55))
				}
			}
			xs := make([]float64, n)
			ranks := []int{(n - 1) / 2, n / 2, NearestRank(0.95, n), n - 1}
			b.Run(fmt.Sprintf("select/%s/n=%d", kind, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(xs, in)
					Select(xs, ranks...)
				}
			})
			b.Run(fmt.Sprintf("sort/%s/n=%d", kind, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(xs, in)
					sort.Float64s(xs)
				}
			})
		}
	}
}
