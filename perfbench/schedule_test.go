package main

import (
	"bytes"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := makePlan(w, 42, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, 42, 10*time.Second)
		c, _ := makePlan(w, 43, 10*time.Second)
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: seed 42 gave two different schedules", w)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 42 and 43 gave the same schedule", w)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	window := 10 * time.Second
	rw, _ := makePlan("fleet-rw", 1, window)
	span := rw.Warmup + window
	var reads, writes, ticks, scrapes int
	for i, r := range rw.Open {
		if i > 0 && r.Due < rw.Open[i-1].Due {
			t.Fatalf("fleet-rw: open-loop requests out of due order at %d", i)
		}
		if r.Due < 0 || r.Due >= span {
			t.Fatalf("fleet-rw: due %v outside [0, %v)", r.Due, span)
		}
		switch {
		case r.Kind == kRead:
			reads++
		case r.Kind.isChipOp():
			writes++
		case r.Kind == kTick:
			ticks++
		case r.Kind == kScrape:
			scrapes++
		}
	}
	if ticks != 2*int(span/time.Second) || scrapes != int(span/time.Second) {
		t.Errorf("fleet-rw: %d ticks and %d scrapes over %v, want one each per 500 ms and per second", ticks, scrapes, span)
	}
	if n := reads + writes; n != params["fleet-rw"].ReqRate*int(span/time.Second) {
		t.Errorf("fleet-rw: %d reads+writes, want exactly rate × span", n)
	}
	perSecond := map[time.Duration]int{}
	for _, r := range rw.Open {
		if r.Kind == kRead || r.Kind.isChipOp() {
			perSecond[r.Due/time.Second]++
		}
	}
	for sec, n := range perSecond {
		if n != params["fleet-rw"].ReqRate {
			t.Errorf("fleet-rw: second %d offers %d requests, want %d", sec, n, params["fleet-rw"].ReqRate)
		}
	}
	if reads != writes {
		t.Errorf("fleet-rw: %d reads vs %d writes, want half each", reads, writes)
	}
	if share := rampShare(rw); share != 0 {
		t.Errorf("fleet-rw: ramp share %v, want 0", share)
	}

	fb, _ := makePlan("fleet-batch", 1, window)
	for _, b := range fb.Closed {
		if len(b.Ops) != batchSize {
			t.Fatalf("fleet-batch: batch of %d items", len(b.Ops))
		}
		seen := map[int]bool{}
		for _, it := range b.Ops {
			if seen[it.Chip] {
				t.Fatalf("fleet-batch: chip %d twice in a batch", it.Chip)
			}
			seen[it.Chip] = true
		}
	}

	ee, _ := makePlan("engine-epochs", 1, window)
	changed := map[int]bool{}
	for _, r := range ee.Open {
		if r.Kind == kCond {
			if r.Chip%5 > 1 || (r.Duty != 1 && r.Duty != 0.5) {
				t.Fatalf("engine-epochs: condition change %+v leaves the two mildest corners", r)
			}
			changed[r.Chip] = true
		}
	}
	if len(ee.Stable) != 64 {
		t.Fatalf("engine-epochs: %d stable chips sampled, want 64", len(ee.Stable))
	}
	for _, c := range ee.Stable {
		if changed[c] || ee.Engine[c].Schedule {
			t.Errorf("engine-epochs: sampled chip %d is changed or scheduled", c)
		}
	}
}
