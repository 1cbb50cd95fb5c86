// Command guard-smoke is the red-team/blue-team smoke test CI runs
// after the engine smoke: it builds selfheal-serve and boots TWO
// servers from the same binary on manual engine clocks, with the same
// seeded wearout adversary — a defended fleet (guard with stock
// detection) and an undefended control (guard blinded with
// astronomically high thresholds, so the attack runs unopposed) —
// loads 10k chips into each, paces both simulations epoch by epoch
// over HTTP, and verifies the paper's headline end to end: the
// defended guard detects the attack within a bounded number of epochs,
// quarantines/remaps/rejuvenates the victims automatically (mutations
// 503 with code "quarantined" and a Retry-After while reads keep
// serving), recovers ≥90% of the attack-induced margin loss, and holds
// the victim's stress exposure to ≤1/3 of the control victim's — while
// the control demonstrably drifts.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"selfheal/scripts/internal/harness"
)

const (
	totalChips = 10_000
	fleetChips = 500 // fabricated through the fleet API; the adversary's hunting ground
	batchSize  = 1_000

	// The adversary: two victims, dc-stress at 110C/1.32V, total
	// sleep-window denial, cancellation spam half the epochs. The
	// attack opens after the whole fleet has aged uniformly for a
	// while, so onset is observable against a settled baseline.
	advSpec  = "seed=11,victims=2,start=120,deny_p=1,cancel_p=0.5"
	advStart = uint64(120)

	// Defended blue team: stock detection, with long rejuvenation
	// windows so the victim's quarantine duty cycle stays low.
	defendSpec = "rejuv_epochs=16"
	// Undefended control: the same guard applies the adversary's moves
	// but its detector is blinded, so nothing is ever convicted.
	blindSpec = "sigma=1e9,rate_floor=1e9"

	// Bounds. Detection is expected ~4 epochs after the attack lands
	// (2 outlier deltas convict once the damage gate clears); 15
	// leaves margin.
	maxAlertEpochs = 15
	watchEpochs    = 100 // measurement window after attack onset
	minRecoverFrac = 0.9 // of the victim's margin loss, peak to valley
	maxStressRatio = 1.0 / 3.0
)

// guardStatus mirrors the GET /v1/guard body (the fields we use).
type guardStatus struct {
	Enabled bool `json:"enabled"`
	Status  *struct {
		Epoch       uint64 `json:"epoch"`
		Quarantined []struct {
			Chip     string  `json:"chip"`
			OnsetVth float64 `json:"onset_vth_v"`
			PeakVth  float64 `json:"peak_vth_v"`
		} `json:"quarantined"`
		Metrics struct {
			AlertsTotal             uint64 `json:"alerts_total"`
			QuarantinedChips        int    `json:"quarantined_chips"`
			RemapsTotal             uint64 `json:"remaps_total"`
			RejuvenationEpochsTotal uint64 `json:"rejuvenation_epochs_total"`
			ReleasesTotal           uint64 `json:"releases_total"`
		} `json:"metrics"`
		Adversary *struct {
			Victims []string `json:"victims"`
		} `json:"adversary,omitempty"`
	} `json:"status,omitempty"`
}

// chipView mirrors the GET /v1/engine/chips/{id} body (the fields we use).
type chipView struct {
	VthShift float64 `json:"vth_shift_v"`
	Odometer uint64  `json:"odometer_epochs"`
}

type server struct{ *harness.Server }

func (s *server) guard() guardStatus {
	var st guardStatus
	if err := json.Unmarshal(harness.MustGet(s.Base+"/v1/guard", http.StatusOK), &st); err != nil {
		harness.Fatalf("%s: decode guard status: %v", s.Name, err)
	}
	if !st.Enabled || st.Status == nil {
		harness.Fatalf("%s: guard not enabled in status body", s.Name)
	}
	return st
}

func (s *server) chip(id string) chipView {
	var cv chipView
	if err := json.Unmarshal(harness.MustGet(s.Base+"/v1/engine/chips/"+id, http.StatusOK), &cv); err != nil {
		harness.Fatalf("%s: decode chip view %s: %v", s.Name, id, err)
	}
	return cv
}

// tick advances the manual engine clock n epochs and returns the new
// epoch.
func (s *server) tick(n uint64) uint64 {
	var resp struct {
		Epoch uint64 `json:"epoch"`
	}
	raw := harness.MustPost(s.Base+"/v1/engine/tick", fmt.Sprintf(`{"epochs":%d}`, n), http.StatusOK)
	if err := json.Unmarshal(raw, &resp); err != nil {
		harness.Fatalf("%s: decode tick response: %v", s.Name, err)
	}
	return resp.Epoch
}

// tickTo advances to the target epoch in bounded bites.
func (s *server) tickTo(target uint64) {
	cur := s.tick(1)
	for cur < target {
		n := target - cur
		if n > 50 {
			n = 50
		}
		cur = s.tick(n)
	}
	if cur != target {
		harness.Fatalf("%s: overshot epoch %d ticking to %d", s.Name, cur, target)
	}
}

func boot(bin, name string, extra ...string) *server {
	s := harness.Start(name, bin, harness.FreePort(), os.Stdout, os.Stderr, append([]string{
		"-engine",
		"-epoch=-1s", // manual clock: this driver paces the simulation
		"-log-level", "error",
		"-grace", "2s",
	}, extra...)...)
	s.WaitHealthy(10 * time.Second)
	return &server{s}
}

// loadFleet fabricates the fleet-API slice the adversary hunts in.
func loadFleet(s *server) {
	specs := make([]string, 0, fleetChips)
	for i := 0; i < fleetChips; i++ {
		specs = append(specs, fmt.Sprintf(`{"id":"f%05d","seed":%d,"kind":"monitored"}`, i, i+1))
	}
	var created struct {
		Created int `json:"created"`
		Failed  int `json:"failed"`
	}
	raw := harness.MustPost(s.Base+"/v1/chips:batch", `{"chips":[`+strings.Join(specs, ",")+`]}`, http.StatusOK)
	if err := json.Unmarshal(raw, &created); err != nil {
		harness.Fatalf("%s: decode fleet batch response: %v", s.Name, err)
	}
	if created.Created != fleetChips || created.Failed != 0 {
		harness.Fatalf("%s: fleet batch created %d / failed %d, want %d / 0",
			s.Name, created.Created, created.Failed, fleetChips)
	}
}

// loadBulk registers the engine-native rest of the 10k fleet.
func loadBulk(s *server) {
	for start := fleetChips; start < totalChips; start += batchSize {
		specs := make([]string, 0, batchSize)
		for i := start; i < start+batchSize && i < totalChips; i++ {
			specs = append(specs, fmt.Sprintf(`{"id":"e%05d","temp_c":80,"vdd":1.2,"duty":1}`, i))
		}
		var reg struct {
			Registered int `json:"registered"`
			Failed     int `json:"failed"`
		}
		if err := json.Unmarshal(harness.MustPost(s.Base+"/v1/engine/chips:batch",
			`{"chips":[`+strings.Join(specs, ",")+`]}`, http.StatusOK), &reg); err != nil {
			harness.Fatalf("%s: decode engine batch response: %v", s.Name, err)
		}
		if reg.Failed != 0 {
			harness.Fatalf("%s: engine batch starting at %d: %d failed", s.Name, start, reg.Failed)
		}
	}
}

// victims returns the adversary's picks; the first tick must already
// have published a snapshot holding the fleet.
func victims(s *server) []string {
	st := s.guard()
	if st.Status.Adversary == nil || len(st.Status.Adversary.Victims) == 0 {
		harness.Fatalf("%s: adversary picked no victims by epoch %d", s.Name, st.Status.Epoch)
	}
	return st.Status.Adversary.Victims
}

// checkQuarantineContract exercises the per-chip 503 surface while the
// victim is held: mutations refuse with code "quarantined" and a
// Retry-After on both the fleet and engine APIs, reads keep serving.
// The clock is manual, so nothing can release the chip mid-probe.
func checkQuarantineContract(s *server, victim string) {
	url := s.Base + "/v1/chips/" + victim + "/stress"
	resp, err := harness.Client.Post(url, "application/json", strings.NewReader(`{"temp_c":85,"vdd":1.2,"hours":1}`))
	if err != nil {
		harness.Fatalf("POST %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		harness.Fatalf("POST %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		harness.Fatalf("stress on quarantined %s: status %d, body %s", victim, resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"code": "quarantined"`) {
		harness.Fatalf("quarantined 503 body missing code: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		harness.Fatalf("quarantined 503 missing Retry-After")
	}
	// Reads keep serving: the fleet list and the quarantined chip's own
	// engine view. (Sensor reads commit — measuring ages the die — so
	// they are refused like any mutation.)
	harness.MustGet(s.Base+"/v1/chips", http.StatusOK)
	harness.MustGet(s.Base+"/v1/engine/chips/"+victim, http.StatusOK)
	// The engine surface — where the adversary's own moves land —
	// refuses identically.
	st, body := harness.Post(s.Base+"/v1/engine/chips/"+victim+"/condition", `{"temp_c":110,"vdd":1.32,"duty":1}`)
	if st != http.StatusServiceUnavailable || !strings.Contains(string(body), "quarantined") {
		harness.Fatalf("engine condition on quarantined %s: status %d, body %s", victim, st, body)
	}
}

func main() {
	tmp, err := os.MkdirTemp("", "guard-smoke-")
	if err != nil {
		harness.Fatalf("tempdir: %v", err)
	}
	defer os.RemoveAll(tmp)

	bin := harness.Build(tmp, false)

	defended := boot(bin, "defended", "-guard", "-guard-spec", defendSpec, "-adversary", advSpec)
	control := boot(bin, "control", "-guard", "-guard-spec", blindSpec, "-adversary", advSpec)
	defer defended.Stop()
	defer control.Stop()

	// ---- Arm both arenas: load 10k chips each, then age the whole ----
	// ---- fleet uniformly to just before attack onset and baseline. ----
	loadStart := time.Now()
	var wg sync.WaitGroup
	for _, s := range []*server{defended, control} {
		wg.Add(1)
		go func(s *server) { defer wg.Done(); loadFleet(s); loadBulk(s) }(s)
	}
	wg.Wait()
	fmt.Printf("guard-smoke: 2x%d chips loaded in %v\n", totalChips, time.Since(loadStart).Round(time.Millisecond))

	defended.tickTo(advStart - 1)
	control.tickTo(advStart - 1)
	dVictims := victims(defended)
	cVictims := victims(control)
	primary, cPrimary := dVictims[0], cVictims[0]
	dBase := defended.chip(primary)
	cBase := control.chip(cPrimary)
	fmt.Printf("guard-smoke: defended victims %v, control victims %v, attack opens at epoch %d\n",
		dVictims, cVictims, advStart)

	// ---- Pace the defended arena epoch by epoch through the window. ----
	var (
		firstQuarEpoch uint64
		contractDone   bool
		peakVth        = dBase.VthShift
		valleyVth      = dBase.VthShift
	)
	var dst guardStatus
	for epoch := advStart; epoch < advStart+watchEpochs; epoch++ {
		defended.tick(1)
		dst = defended.guard()
		roster := map[string]bool{}
		for _, q := range dst.Status.Quarantined {
			roster[q.Chip] = true
		}
		if firstQuarEpoch == 0 && len(roster) > 0 {
			firstQuarEpoch = dst.Status.Epoch
		}
		if !contractDone && roster[primary] {
			checkQuarantineContract(defended, primary)
			contractDone = true
		}
		cv := defended.chip(primary)
		if cv.VthShift > peakVth {
			peakVth = cv.VthShift
		}
		if dst.Status.Metrics.ReleasesTotal > 0 && cv.VthShift < valleyVth {
			valleyVth = cv.VthShift
		}
	}

	// Detection: bounded alert latency from attack onset.
	if firstQuarEpoch == 0 {
		harness.Fatalf("defended guard never quarantined; metrics %+v", dst.Status.Metrics)
	}
	if lat := firstQuarEpoch - advStart; lat > maxAlertEpochs {
		harness.Fatalf("alert latency %d epochs (quarantine at %d, onset %d), bound %d",
			lat, firstQuarEpoch, advStart, maxAlertEpochs)
	}
	if !contractDone {
		harness.Fatalf("victim %s never observed on the quarantine roster", primary)
	}
	m := dst.Status.Metrics
	if m.AlertsTotal == 0 || m.RemapsTotal == 0 || m.RejuvenationEpochsTotal == 0 || m.ReleasesTotal == 0 {
		harness.Fatalf("defended loop incomplete: %+v", m)
	}

	// The alert feed names the victim chips.
	var alerts struct {
		Alerts []struct {
			Kind string `json:"kind"`
			Chip string `json:"chip"`
		} `json:"alerts"`
	}
	if err := json.Unmarshal(harness.MustGet(defended.Base+"/v1/guard/alerts", http.StatusOK), &alerts); err != nil {
		harness.Fatalf("decode alerts: %v", err)
	}
	kinds := map[string]bool{}
	victimAlerted := false
	for _, a := range alerts.Alerts {
		kinds[a.Kind] = true
		if a.Kind == "quarantined" && a.Chip == primary {
			victimAlerted = true
		}
	}
	for _, k := range []string{"aging-rate-outlier", "quarantined", "remapped", "rejuvenation-scheduled", "released"} {
		if !kinds[k] {
			harness.Fatalf("alert feed missing kind %q; got %v", k, kinds)
		}
	}
	if !victimAlerted {
		harness.Fatalf("no quarantine alert names victim %s", primary)
	}

	// Margin recovery: the rejuvenated valley recovers ≥90% of the
	// victim's margin loss (baseline → attack peak).
	loss := peakVth - dBase.VthShift
	recovered := peakVth - valleyVth
	if loss <= 0 {
		harness.Fatalf("victim %s never lost margin (peak %.3g, base %.3g)", primary, peakVth, dBase.VthShift)
	}
	frac := recovered / loss
	if frac < minRecoverFrac {
		harness.Fatalf("margin recovery %.1f%% (peak %.3g, valley %.3g, base %.3g), want ≥ %.0f%%",
			100*frac, peakVth, valleyVth, dBase.VthShift, 100*minRecoverFrac)
	}

	// ---- The undefended control over the same window: it drifts. ----
	control.tickTo(advStart + watchEpochs)
	cst := control.guard()
	if cst.Status.Metrics.QuarantinedChips != 0 || cst.Status.Metrics.ReleasesTotal != 0 {
		harness.Fatalf("blinded control quarantined something: %+v", cst.Status.Metrics)
	}
	bystander := ""
	for i := 0; i < fleetChips && bystander == ""; i++ {
		id := fmt.Sprintf("f%05d", i)
		hit := false
		for _, v := range cVictims {
			hit = hit || v == id
		}
		if !hit {
			bystander = id
		}
	}
	cVictimView := control.chip(cPrimary)
	bystanderView := control.chip(bystander)
	if cVictimView.VthShift < 2*bystanderView.VthShift {
		harness.Fatalf("control victim %s did not drift: vth %.3g vs bystander %.3g",
			cPrimary, cVictimView.VthShift, bystanderView.VthShift)
	}
	dVictimView := defended.chip(primary)
	if dVictimView.VthShift >= cVictimView.VthShift/2 {
		harness.Fatalf("defended victim vth %.3g not clearly below drifting control %.3g",
			dVictimView.VthShift, cVictimView.VthShift)
	}

	// Stress time: epochs the victim spent in a stress phase since its
	// pre-onset baseline. The defended victim sleeps through
	// rejuvenation windows and its attacker is blocked while held; the
	// control victim is dc-stressed the whole window.
	dStress := dVictimView.Odometer - dBase.Odometer
	cStress := cVictimView.Odometer - cBase.Odometer
	if cStress == 0 {
		harness.Fatalf("control victim accrued no stress epochs")
	}
	ratio := float64(dStress) / float64(cStress)
	if ratio > maxStressRatio {
		harness.Fatalf("defended victim stress time %d epochs vs control %d (ratio %.2f), want ≤ %.2f",
			dStress, cStress, ratio, maxStressRatio)
	}

	// ---- Prometheus carries the guard series, cardinality capped. ----
	prom := string(harness.MustGet(defended.Base+"/metrics?format=prometheus", http.StatusOK))
	for _, want := range []string{
		"guard_alerts_total", "guard_quarantined_chips", "guard_remaps_total",
		"guard_rejuvenation_epochs_total", "guard_releases_total",
	} {
		if !strings.Contains(prom, want) {
			harness.Fatalf("prometheus exposition missing %q", want)
		}
	}
	if n := strings.Count(prom, "guard_chip_quarantined{"); n > 50 {
		harness.Fatalf("guard per-chip quarantine series = %d, want <= 50", n)
	}

	fmt.Printf("guard-smoke: PASS — detected in %d epochs, %.0f%% margin recovered "+
		"(peak %.3g → valley %.3g V), stress ratio %.2f (defended %d vs control %d epochs), "+
		"control drifted to %.3g V (bystander %.3g V)\n",
		firstQuarEpoch-advStart, 100*frac, peakVth, valleyVth, ratio, dStress, cStress,
		cVictimView.VthShift, bystanderView.VthShift)
}
