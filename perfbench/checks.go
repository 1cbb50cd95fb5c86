package main

import (
	"fmt"
	"math"
	"sort"

	"selfheal/internal/td"
	"selfheal/internal/units"
)

// Tolerances of the output checks.
const (
	// headlineTolPct bounds each headline reading's distance from the
	// paper's figures as seed 7 reproduces them (2.153 % after 24 h DC
	// at 110 °C, 0.591 % after 6 h at 110 °C / −0.3 V), in percentage
	// points. The simulation is deterministic, so any drift beyond
	// rounding means the physics changed.
	headlineTolPct     = 0.01
	headlineStressPct  = 2.153
	headlineHealedPct  = 0.591
	usageTolSeconds    = 1e-6  // acked vs replayed stress/heal seconds
	physicsRelTol      = 1e-12 // served vs scalar-model ΔVth
	physicsAbsTolVolts = 1e-15
)

func checkHeadline(stressedPct, healedPct float64) error {
	if math.Abs(stressedPct-headlineStressPct) > headlineTolPct ||
		math.Abs(healedPct-headlineHealedPct) > headlineTolPct {
		return fmt.Errorf("headline: 24 h DC at 110 °C gave %.4f %% (want %.3f ± %.2f), 6 h at 110 °C / −0.3 V gave %.4f %% (want %.3f ± %.2f)",
			stressedPct, headlineStressPct, headlineTolPct, healedPct, headlineHealedPct, headlineTolPct)
	}
	return nil
}

// checkDurability compares what the generator saw acknowledged with
// what a crash-restarted server replayed: every acked stress and
// rejuvenate must be in the per-chip usage, and the engine must stand
// within one journal flush window of the epochs ticked.
func checkDurability(acks map[string]*ack, usage map[string]chipUsage, ticked, recovered uint64) error {
	ids := make([]string, 0, len(acks))
	for id := range acks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a := acks[id]
		u, ok := usage[id]
		if !ok {
			return fmt.Errorf("durability: acked chip %s missing after restart", id)
		}
		if math.Abs(u.StressSeconds-a.StressSeconds) > usageTolSeconds ||
			math.Abs(u.HealSeconds-a.HealSeconds) > usageTolSeconds {
			return fmt.Errorf("durability: chip %s replayed stress %.0f s / heal %.0f s, acked %.0f s / %.0f s",
				id, u.StressSeconds, u.HealSeconds, a.StressSeconds, a.HealSeconds)
		}
	}
	if recovered > ticked || ticked-recovered >= flushEpochs {
		return fmt.Errorf("durability: engine replayed to epoch %d after %d ticked epochs (flush window %d)",
			recovered, ticked, flushEpochs)
	}
	return nil
}

// chipView is the GET /v1/engine/chips/{id} body.
type chipView struct {
	ID       string  `json:"id"`
	Epoch    uint64  `json:"epoch"`
	VthShift float64 `json:"vth_shift_v"`
	Duty     float64 `json:"duty"`
}

// scalarVth steps the scalar td.State model through the given number
// of epochs at a chip's fixed condition — the reference the engine's
// vectorized batch path must reproduce.
func scalarVth(c engineChip, epochs uint64) float64 {
	p := td.DefaultParams()
	dt := units.HoursToSeconds(epochHours)
	var s td.State
	for e := uint64(0); e < epochs; e++ {
		if c.Phase == "sleep" {
			var vrev units.Volt
			if c.Vdd < 0 {
				vrev = units.Volt(-c.Vdd)
			}
			s.Recover(p, td.RecoveryCond{VRev: vrev, T: units.Celsius(c.TempC).Kelvin()}, dt)
			continue
		}
		s.Stress(p, td.StressCond{V: units.Volt(c.Vdd), T: units.Celsius(c.TempC).Kelvin(), Duty: c.Duty}, dt)
	}
	return s.Vth()
}

func checkPhysics(c engineChip, v chipView) error {
	want := scalarVth(c, v.Epoch)
	if math.Abs(v.VthShift-want) > math.Max(physicsAbsTolVolts, physicsRelTol*math.Abs(want)) {
		return fmt.Errorf("physics: chip %s at epoch %d serves ΔVth %.17g V, the scalar model gives %.17g V",
			c.ID, v.Epoch, v.VthShift, want)
	}
	return nil
}
