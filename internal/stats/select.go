package stats

import (
	"fmt"
	"math/bits"
	"sort"
)

// NearestRank returns the index of the nearest-rank p-quantile
// (0 ≤ p ≤ 1) in the ascending order of n > 0 values: ⌊p·(n−1)⌋, with
// no interpolation between neighbours.
func NearestRank(p float64, n int) int { return int(p * float64(n-1)) }

// Select reorders xs in place so that, for every k in ranks, xs[k] is
// the element sort.Float64s would leave at index k — NaNs first, then
// ascending, with -0 and +0 tied — and nothing before xs[k] is greater,
// nothing after it smaller. ranks may repeat and come in any order
// (Select sorts the slice in place); each must index xs.
//
// It is a quickselect: expected linear time, on ties too (a pivot
// that is its segment's minimum splits off its whole equal band), and
// each later rank is searched only inside the segment the earlier
// partitions left, so several ranks of one sample cost about one
// selection. A segment that keeps splitting badly is handed to
// sort.Float64s after 2·log₂(n) partitions, bounding the worst case at
// O(n log n).
func Select(xs []float64, ranks ...int) {
	for _, k := range ranks {
		if k < 0 || k >= len(xs) {
			panic(fmt.Sprintf("stats: Select rank %d outside [0,%d)", k, len(xs)))
		}
	}
	insertionSort(ranks)
	// NaNs rank first; after moving them there the rest compares with
	// plain < and >, which is sort.Float64s's order on non-NaN values.
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	for len(ranks) > 0 && ranks[0] < nan {
		ranks = ranks[1:]
	}
	selectRanks(xs, nan, len(xs), ranks, 2*bits.Len(uint(len(xs))))
}

// selectRanks places every rank of the ascending ranks, all inside
// [lo,hi), within xs[lo:hi]; depth is the partitions left before the
// segment is sorted outright.
func selectRanks(xs []float64, lo, hi int, ranks []int, depth int) {
	for len(ranks) > 0 {
		if hi-lo <= 16 {
			insertionSort(xs[lo:hi])
			return
		}
		if depth == 0 {
			sort.Float64s(xs[lo:hi])
			return
		}
		depth--
		p := pivot(xs, lo, hi)
		m := lo + partitionBelow(xs[lo:hi], p)
		if m == lo {
			// p is the segment's minimum: split off its equal band
			// instead, which settles every rank inside it. On tied
			// samples this is where most elements drop out.
			m = lo + partitionAtMost(xs[lo:hi], p)
			for len(ranks) > 0 && ranks[0] < m {
				ranks = ranks[1:]
			}
			lo = m
			continue
		}
		i := 0
		for i < len(ranks) && ranks[i] < m {
			i++
		}
		if i > 0 {
			selectRanks(xs, lo, m, ranks[:i], depth)
		}
		ranks, lo = ranks[i:], m
	}
}

// partitionBelow moves the elements of xs below p to its front and
// returns their count. The loop is branch-free (a Lomuto partition
// whose counter steps by a conditional move), so its cost does not
// depend on how predictable the comparisons are.
func partitionBelow(xs []float64, p float64) int {
	m := 0
	for i, x := range xs {
		xs[i] = xs[m]
		xs[m] = x
		step := 0
		if x < p {
			step = 1
		}
		m += step
	}
	return m
}

// partitionAtMost is partitionBelow for the elements not above p.
func partitionAtMost(xs []float64, p float64) int {
	m := 0
	for i, x := range xs {
		xs[i] = xs[m]
		xs[m] = x
		step := 0
		if x <= p {
			step = 1
		}
		m += step
	}
	return m
}

// pivot is the median of three samples of xs[lo:hi], or Tukey's ninther
// (the median of three such medians) on longer segments.
func pivot(xs []float64, lo, hi int) float64 {
	n := hi - lo
	m := lo + n/2
	if n <= 128 {
		return median3(xs[lo], xs[m], xs[hi-1])
	}
	s := n / 8
	return median3(
		median3(xs[lo], xs[lo+s], xs[lo+2*s]),
		median3(xs[m-s], xs[m], xs[m+s]),
		median3(xs[hi-1-2*s], xs[hi-1-s], xs[hi-1]))
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

func insertionSort[T int | float64](xs []T) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
