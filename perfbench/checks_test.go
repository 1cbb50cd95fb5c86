package main

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"selfheal/internal/engine"
	"selfheal/internal/store"
)

func TestCheckHeadline(t *testing.T) {
	if err := checkHeadline(2.1531651399621303, 0.5908438106276387); err != nil {
		t.Errorf("seed 7's readings rejected: %v", err)
	}
	for _, c := range [][2]float64{{2.20, 0.591}, {2.153, 0.70}, {0, 0}} {
		if err := checkHeadline(c[0], c[1]); err == nil {
			t.Errorf("checkHeadline(%v, %v) passed", c[0], c[1])
		}
	}
}

// cannedMetrics is a trimmed GET /metrics body from a restarted server.
const cannedMetrics = `{
  "uptime_seconds": 0.4,
  "chips": {
    "c0000": {"kind": "bench", "stress_seconds": 10800, "heal_seconds": 3600, "ops": 5},
    "headline": {"kind": "bench", "stress_seconds": 86400, "heal_seconds": 21600, "ops": 4}
  }
}`

func TestCheckDurability(t *testing.T) {
	var m metricsJSON
	if err := json.Unmarshal([]byte(cannedMetrics), &m); err != nil {
		t.Fatal(err)
	}
	acks := map[string]*ack{
		"c0000":    {StressSeconds: 10800, HealSeconds: 3600},
		"headline": {StressSeconds: 86400, HealSeconds: 21600},
	}
	if err := checkDurability(acks, m.Chips, 40, 32); err != nil {
		t.Errorf("matching history rejected: %v", err)
	}
	lost := map[string]*ack{"c0000": {StressSeconds: 14400, HealSeconds: 3600}}
	if err := checkDurability(lost, m.Chips, 40, 32); err == nil || !strings.Contains(err.Error(), "c0000") {
		t.Errorf("a lost acked stress passed: %v", err)
	}
	missing := map[string]*ack{"c0001": {StressSeconds: 3600}}
	if err := checkDurability(missing, m.Chips, 40, 32); err == nil {
		t.Error("a missing acked chip passed")
	}
	if err := checkDurability(acks, m.Chips, 40, 24); err == nil {
		t.Error("an engine 16 epochs behind passed")
	}
	if err := checkDurability(acks, m.Chips, 40, 41); err == nil {
		t.Error("an engine ahead of the ticked epochs passed")
	}
}

// TestCheckPhysics serves chips from a real engine (in memory) and
// checks the scalar model reproduces them, and that a perturbed
// reading fails.
func TestCheckPhysics(t *testing.T) {
	e, err := engine.New(store.NewMem[any](), engine.Config{EpochHours: epochHours})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	chips := []engineChip{
		{ID: "dc", TempC: 80, Vdd: 1.2, Duty: 1},
		{ID: "ac", TempC: 80, Vdd: 1.2, Duty: 0.5},
		{ID: "hot", TempC: 105, Vdd: 1.32, Duty: 1},
		{ID: "sleep", Phase: "sleep", TempC: 45, Vdd: -0.25, Duty: 1},
	}
	ctx := context.Background()
	for _, c := range chips {
		if err := e.Register(ctx, engine.Spec{ID: c.ID, Phase: c.Phase, TempC: c.TempC, Vdd: c.Vdd, Duty: c.Duty}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 37; i++ {
		e.Tick(ctx)
	}
	for _, c := range chips {
		cv, ok := e.Snapshot().Chip(c.ID)
		if !ok {
			t.Fatalf("chip %s missing", c.ID)
		}
		raw, _ := json.Marshal(cv)
		var v chipView
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		if err := checkPhysics(c, v); err != nil {
			t.Errorf("served chip rejected: %v", err)
		}
		v.VthShift += math.Max(1e-9*math.Abs(v.VthShift), 1e-12)
		if err := checkPhysics(c, v); err == nil {
			t.Errorf("chip %s: a perturbed ΔVth passed", c.ID)
		}
	}
}
