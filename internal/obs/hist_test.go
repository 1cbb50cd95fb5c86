package obs

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestHistogramBoundLandsInItsBucket(t *testing.T) {
	h := NewHistogram(0.001, 0.01)
	h.Observe(time.Millisecond)                   // exactly the first bound
	h.Observe(time.Millisecond + time.Nanosecond) // just above it
	h.Observe(10 * time.Millisecond)              // exactly the second bound
	got := h.Snapshot().Buckets
	want := []Bucket{{"0.001", 1}, {"0.01", 3}, {"+Inf", 3}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}

func TestHistogramCumulativeToInf(t *testing.T) {
	h := NewHistogram(0.0005, 0.5)
	for _, d := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, time.Second, time.Hour} {
		h.Observe(d)
	}
	s := h.Snapshot()
	want := []Bucket{{"0.0005", 2}, {"0.5", 3}, {"+Inf", 5}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", s.Buckets, want)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if wantSum := (100*time.Microsecond + time.Millisecond + time.Second + time.Hour).Seconds(); s.SumSeconds != wantSum {
		t.Fatalf("sum = %v, want %v", s.SumSeconds, wantSum)
	}
}

// TestHistogramCountIsInfBucket reads snapshots while writers observe:
// every snapshot's Count is its +Inf bucket and buckets never decrease.
func TestHistogramCountIsInfBucket(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	const writers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(i*(w+1)) * 50 * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		s := h.Snapshot()
		if inf := s.Buckets[len(s.Buckets)-1]; inf.LE != "+Inf" || inf.Count != s.Count {
			t.Fatalf("count %d, +Inf bucket %+v", s.Count, inf)
		}
		for i := 1; i < len(s.Buckets); i++ {
			if s.Buckets[i].Count < s.Buckets[i-1].Count {
				t.Fatalf("buckets not cumulative: %v", s.Buckets)
			}
		}
	}
	if s := h.Snapshot(); s.Count != writers*each {
		t.Fatalf("final count %d, want %d", s.Count, writers*each)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	h := NewHistogram(0.001, 0.5)
	h.Observe(time.Millisecond)
	h.Observe(250 * time.Millisecond)
	h.Observe(2 * time.Second)
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Histogram("x_seconds", []Label{{Name: "route", Value: `GET "/a"`}}, h.Snapshot())
	want := `x_seconds_bucket{route="GET \"/a\"",le="0.001"} 1
x_seconds_bucket{route="GET \"/a\"",le="0.5"} 2
x_seconds_bucket{route="GET \"/a\"",le="+Inf"} 3
x_seconds_sum{route="GET \"/a\""} 2.251
x_seconds_count{route="GET \"/a\""} 3
`
	if buf.String() != want {
		t.Fatalf("got:\n%swant:\n%s", buf.String(), want)
	}
}
