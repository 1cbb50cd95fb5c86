package obs

import (
	"slices"
	"testing"
)

func TestRingOverwrite(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Newest(0); len(got) != 0 {
		t.Fatalf("empty ring Newest = %v", got)
	}
	r.Push(1)
	r.Push(2)
	if got := r.Oldest(); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("partial Oldest = %v", got)
	}
	for v := 3; v <= 5; v++ {
		r.Push(v)
	}
	for _, c := range []struct {
		got, want []int
	}{
		{r.Newest(0), []int{5, 4, 3}},
		{r.Newest(2), []int{5, 4}},
		{r.Newest(9), []int{5, 4, 3}},
		{r.Oldest(), []int{3, 4, 5}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("got %v, want %v", c.got, c.want)
		}
	}
}
