// Command engine-smoke is the fleet-aging-engine smoke test CI runs
// after the observability smoke: it builds selfheal-serve, boots it
// durable with the engine ticking fast, loads 50k chips through the
// batch APIs (a fleet-backed slice plus engine-native bulk
// registrations), lets 300 epochs elapse — past the engine's first
// checkpoint — while concurrent readers watch the snapshots, and
// verifies the reads were monotone, the odometers advanced, the epoch
// lag stayed bounded, and the Prometheus exposition kept its per-chip
// cardinality capped. It then kill -9s the server, restarts it on the
// same data directory, and checks that every chip is back from the
// checkpoint plus its tail, the epoch within one flush window of the
// last one read, and no sampled odometer behind its reading before the
// kill.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/scripts/internal/harness"
)

const (
	totalChips  = 50_000
	fleetChips  = 1_000 // fabricated through the fleet API; the rest bulk-register
	batchSize   = 1_000
	wantEpochs  = 300 // past the engine's first checkpoint, at 256
	epochPeriod = 25 * time.Millisecond
	maxLagSecs  = 5.0 // generous: a 1-CPU CI box ticking 50k chips
	flushEpochs = 16  // the engine's default journal flush window
	probes      = 20  // chips whose odometers are checked across the restart
)

// engineStatus mirrors the GET /v1/engine body.
type engineStatus struct {
	Enabled bool `json:"enabled"`
	Stats   struct {
		Epoch           uint64  `json:"epoch"`
		Chips           int     `json:"chips"`
		EpochLagSeconds float64 `json:"epoch_lag_seconds"`
		ChipsPerSecond  float64 `json:"chips_per_second"`
		ReplayedEpochs  uint64  `json:"replayed_epochs"`
		AdvanceError    string  `json:"advance_error,omitempty"`
	} `json:"stats"`
}

// odometer reads one engine chip's odometer.
func odometer(base, id string) uint64 {
	var cv struct {
		Odometer uint64 `json:"odometer_epochs"`
	}
	if err := json.Unmarshal(harness.MustGet(base+"/v1/engine/chips/"+id, http.StatusOK), &cv); err != nil {
		harness.Fatalf("decode chip view of %s: %v", id, err)
	}
	return cv.Odometer
}

func status(base string) engineStatus {
	var st engineStatus
	if err := json.Unmarshal(harness.MustGet(base+"/v1/engine", http.StatusOK), &st); err != nil {
		harness.Fatalf("decode engine status: %v", err)
	}
	return st
}

func main() {
	tmp, err := os.MkdirTemp("", "engine-smoke-")
	if err != nil {
		harness.Fatalf("tempdir: %v", err)
	}
	defer os.RemoveAll(tmp)
	bin := harness.Build(tmp, false)
	args := []string{
		"-engine",
		"-epoch", epochPeriod.String(),
		"-data", filepath.Join(tmp, "data"),
		"-log-level", "warn",
		"-grace", "2s",
	}
	addr := harness.FreePort()
	srv := harness.Start("server", bin, addr, os.Stdout, os.Stderr, args...)
	defer func() { srv.Stop() }()
	base := srv.Base
	srv.WaitHealthy(10 * time.Second)

	// ---- Load the fleet: a fabricated slice plus engine-native bulk. ----
	loadStart := time.Now()
	var specs []string
	for i := 0; i < fleetChips; i++ {
		specs = append(specs, fmt.Sprintf(`{"id":"f%05d","seed":%d}`, i, i+1))
	}
	var created struct {
		Created int `json:"created"`
		Failed  int `json:"failed"`
	}
	raw := harness.MustPost(base+"/v1/chips:batch", `{"chips":[`+strings.Join(specs, ",")+`]}`, http.StatusOK)
	if err := json.Unmarshal(raw, &created); err != nil {
		harness.Fatalf("decode fleet batch response: %v", err)
	}
	if created.Created != fleetChips || created.Failed != 0 {
		harness.Fatalf("fleet batch created %d / failed %d, want %d / 0", created.Created, created.Failed, fleetChips)
	}

	for start := fleetChips; start < totalChips; start += batchSize {
		specs = specs[:0]
		for i := start; i < start+batchSize && i < totalChips; i++ {
			// A mix of duty cycles and schedules, like a real fleet.
			switch i % 3 {
			case 0:
				specs = append(specs, fmt.Sprintf(`{"id":"e%05d","temp_c":80,"vdd":1.2,"duty":1}`, i))
			case 1:
				specs = append(specs, fmt.Sprintf(`{"id":"e%05d","temp_c":105,"vdd":1.32,"duty":0.5}`, i))
			default:
				specs = append(specs, fmt.Sprintf(
					`{"id":"e%05d","temp_c":80,"vdd":1.2,"duty":1,"schedule":{"stress_epochs":8,"sleep_epochs":4,"sleep_temp_c":40,"sleep_vdd":-0.3}}`, i))
			}
		}
		var reg struct {
			Registered int `json:"registered"`
			Failed     int `json:"failed"`
		}
		if err := json.Unmarshal(harness.MustPost(base+"/v1/engine/chips:batch",
			`{"chips":[`+strings.Join(specs, ",")+`]}`, http.StatusOK), &reg); err != nil {
			harness.Fatalf("decode engine batch response: %v", err)
		}
		if reg.Failed != 0 {
			harness.Fatalf("engine batch starting at %d: %d failed", start, reg.Failed)
		}
	}
	st := status(base)
	if st.Stats.Chips != totalChips {
		harness.Fatalf("engine holds %d chips after load, want %d", st.Stats.Chips, totalChips)
	}
	fmt.Printf("engine-smoke: loaded %d chips in %v (epoch %d already ticking)\n",
		totalChips, time.Since(loadStart).Round(time.Millisecond), st.Stats.Epoch)

	// ---- Watch 300 epochs elapse with concurrent monotone readers. ----
	startEpoch := st.Stats.Epoch
	target := startEpoch + wantEpochs
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan string, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := uint64(0)
			lastOdo := -1.0
			// Any engine chip works: odometers only ever advance.
			probe := fmt.Sprintf("e%05d", fleetChips+3*(r+1))
			for !stop.Load() {
				st := status(base)
				if st.Stats.Epoch < last {
					errc <- fmt.Sprintf("reader %d: epoch went backwards: %d after %d", r, st.Stats.Epoch, last)
					return
				}
				last = st.Stats.Epoch
				if st.Stats.Chips != totalChips {
					errc <- fmt.Sprintf("reader %d: snapshot holds %d chips, want %d", r, st.Stats.Chips, totalChips)
					return
				}
				var cv struct {
					Odometer float64 `json:"odometer_epochs"`
				}
				if err := json.Unmarshal(harness.MustGet(base+"/v1/engine/chips/"+probe, http.StatusOK), &cv); err != nil {
					errc <- fmt.Sprintf("reader %d: decode chip view: %v", r, err)
					return
				}
				if cv.Odometer < lastOdo {
					errc <- fmt.Sprintf("reader %d: %s odometer went backwards: %v after %v", r, probe, cv.Odometer, lastOdo)
					return
				}
				lastOdo = cv.Odometer
				time.Sleep(10 * time.Millisecond)
			}
		}(r)
	}

	maxLag := 0.0
	deadline := time.Now().Add(3 * time.Minute)
	for {
		st = status(base)
		if st.Stats.EpochLagSeconds > maxLag {
			maxLag = st.Stats.EpochLagSeconds
		}
		if st.Stats.AdvanceError != "" {
			harness.Fatalf("engine reported advance error: %s", st.Stats.AdvanceError)
		}
		if st.Stats.Epoch >= target {
			break
		}
		if time.Now().After(deadline) {
			harness.Fatalf("engine reached only epoch %d of %d before the deadline", st.Stats.Epoch, target)
		}
		time.Sleep(50 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errc:
		harness.Fatalf("%s", msg)
	default:
	}
	if maxLag > maxLagSecs {
		harness.Fatalf("epoch lag peaked at %.2fs, bound is %.2fs", maxLag, maxLagSecs)
	}

	// ---- A DC chip's odometer matches the epochs it lived through. ----
	if odometer(base, "e01002") == 0 {
		harness.Fatalf("DC chip e01002 never aged")
	}

	// ---- Cardinality stays capped with 50k chips registered. ----
	prom := string(harness.MustGet(base+"/metrics?format=prometheus", http.StatusOK))
	for _, want := range []string{
		fmt.Sprintf("selfheal_engine_chips %d", totalChips),
		"selfheal_engine_epoch ",
		"selfheal_engine_chips_per_second",
		fmt.Sprintf("selfheal_chips %d", fleetChips),
	} {
		if !strings.Contains(prom, want) {
			harness.Fatalf("prometheus exposition missing %q", want)
		}
	}
	if n := strings.Count(prom, "selfheal_engine_chip_odometer_epochs{"); n == 0 || n > 50 {
		harness.Fatalf("engine per-chip odometer series = %d, want 1..50", n)
	}
	if n := strings.Count(prom, "selfheal_chip_ops_total{"); n > 50 {
		harness.Fatalf("fleet per-chip ops series = %d, want <= 50", n)
	}

	// ---- kill -9, restart on the same journal: checkpoint plus tail. ----
	// Sample odometers, then let two flush windows pass, so the
	// journal holds at least the sampled epoch when the server dies.
	sampled := make(map[string]uint64, probes)
	for k := 0; k < probes; k++ {
		id := fmt.Sprintf("e%05d", fleetChips+k*(totalChips-fleetChips)/probes)
		sampled[id] = odometer(base, id)
	}
	for sampledAt := status(base).Stats.Epoch; status(base).Stats.Epoch < sampledAt+2*flushEpochs; {
		time.Sleep(10 * time.Millisecond)
	}
	lastRead := status(base).Stats.Epoch
	if err := srv.Kill(); err != nil {
		harness.Fatalf("kill -9: %v", err)
	}
	restartStart := time.Now()
	srv = harness.Start("restarted server", bin, addr, os.Stdout, os.Stderr, args...)
	for {
		if code, _ := harness.Get(srv.Base + "/readyz"); code == http.StatusOK {
			break
		}
		if time.Since(restartStart) > time.Minute {
			harness.Fatalf("restarted server never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	restart := time.Since(restartStart)
	rst := status(srv.Base)
	if rst.Stats.Chips != totalChips {
		harness.Fatalf("restarted engine holds %d chips, want %d", rst.Stats.Chips, totalChips)
	}
	if rst.Stats.Epoch+flushEpochs <= lastRead || rst.Stats.Epoch >= lastRead+flushEpochs {
		harness.Fatalf("restarted engine at epoch %d, last read before the kill %d: want within one flush window (%d)",
			rst.Stats.Epoch, lastRead, flushEpochs)
	}
	if rst.Stats.ReplayedEpochs >= 256 {
		harness.Fatalf("restart re-simulated %d epochs, want the tail after a checkpoint (< 256)", rst.Stats.ReplayedEpochs)
	}
	for id, before := range sampled {
		if after := odometer(srv.Base, id); after < before {
			harness.Fatalf("%s odometer went backwards across the restart: %d after %d", id, after, before)
		}
	}
	fmt.Printf("engine-smoke: restart after kill -9 at epoch %d ready in %v (epoch %d, %d epochs replayed after the checkpoint)\n",
		lastRead, restart.Round(time.Millisecond), rst.Stats.Epoch, rst.Stats.ReplayedEpochs)

	fmt.Printf("engine-smoke: PASS — %d chips, %d epochs, peak lag %.3fs, %.0f chips/sec last tick, restart %v\n",
		totalChips, wantEpochs, maxLag, st.Stats.ChipsPerSecond, restart.Round(time.Millisecond))
}
