package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selfheal/internal/fleet"
	"selfheal/internal/store"
)

// engineTestServer builds a server with the aging engine on and the
// background ticker off, so tests drive epochs deterministically.
func engineTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.EngineEnabled = true
	cfg.EngineEpoch = -1
	s, ts := newTestServer(t, cfg)
	t.Cleanup(s.Close)
	return s, ts
}

func TestEngineRoutesDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var status EngineStatusResponse
	do(t, ts, "GET", "/v1/engine", "", http.StatusOK, &status)
	if status.Enabled || status.Stats != nil {
		t.Fatalf("disabled engine status = %+v", status)
	}
	var er ErrorResponse
	do(t, ts, "GET", "/v1/engine/chips/x", "", http.StatusNotFound, &er)
	if !strings.Contains(er.Error, "-engine") {
		t.Fatalf("disabled-engine error %q should point at the -engine flag", er.Error)
	}
	do(t, ts, "POST", "/v1/engine/chips:batch", `{"chips":[{"id":"x","temp_c":80,"vdd":1.2,"duty":1}]}`,
		http.StatusNotFound, nil)
}

func TestEngineRoutes(t *testing.T) {
	s, ts := engineTestServer(t, Config{})

	var status EngineStatusResponse
	do(t, ts, "GET", "/v1/engine", "", http.StatusOK, &status)
	if !status.Enabled || status.Stats == nil || status.Stats.Chips != 0 {
		t.Fatalf("engine status = %+v", status)
	}

	var reg EngineRegisterResponse
	do(t, ts, "POST", "/v1/engine/chips:batch",
		`{"chips":[
			{"id":"e0","temp_c":105,"vdd":1.32,"duty":1},
			{"id":"e1","temp_c":80,"vdd":1.2,"duty":0.5,
			 "schedule":{"stress_epochs":2,"sleep_epochs":2,"sleep_temp_c":40,"sleep_vdd":-0.3}},
			{"id":"e0","temp_c":80,"vdd":1.2,"duty":1}
		]}`, http.StatusOK, &reg)
	if reg.Registered != 2 || reg.Failed != 1 {
		t.Fatalf("register response: %+v", reg)
	}
	if reg.Results[2].Error == "" || !strings.Contains(reg.Results[2].Error, "twice") {
		t.Fatalf("duplicate-in-batch item: %+v", reg.Results[2])
	}
	// Only the service registers fleet-backed chips: a kind on the wire
	// is an unknown field.
	var er ErrorResponse
	do(t, ts, "POST", "/v1/engine/chips:batch",
		`{"chips":[{"id":"k0","kind":"fleet","temp_c":80,"vdd":1.2,"duty":1}]}`, http.StatusBadRequest, &er)
	if !strings.Contains(er.Error, `unknown field "kind"`) {
		t.Fatalf("kind in a registration body: %q", er.Error)
	}

	// Reads see the registration without any epoch having passed.
	var cv map[string]any
	do(t, ts, "GET", "/v1/engine/chips/e0", "", http.StatusOK, &cv)
	if cv["id"] != "e0" || cv["phase"] != "stress" {
		t.Fatalf("chip view: %v", cv)
	}
	do(t, ts, "GET", "/v1/engine/chips/ghost", "", http.StatusNotFound, nil)

	// Advance three epochs; the DC chip's odometer follows.
	for i := 0; i < 3; i++ {
		s.AgingEngine().Tick(context.Background())
	}
	do(t, ts, "GET", "/v1/engine/chips/e0", "", http.StatusOK, &cv)
	if cv["odometer_epochs"].(float64) != 3 || cv["vth_shift_v"].(float64) <= 0 {
		t.Fatalf("aged chip view: %v", cv)
	}

	// Condition and schedule changes round-trip, invalid ones 400.
	do(t, ts, "POST", "/v1/engine/chips/e0/condition",
		`{"phase":"sleep","temp_c":35,"vdd":-0.4,"duty":1}`, http.StatusOK, &cv)
	if cv["phase"] != "sleep" {
		t.Fatalf("condition change: %v", cv)
	}
	do(t, ts, "POST", "/v1/engine/chips/e0/condition",
		`{"phase":"hibernate","temp_c":35,"vdd":0,"duty":1}`, http.StatusBadRequest, nil)
	do(t, ts, "POST", "/v1/engine/chips/ghost/condition",
		`{"temp_c":80,"vdd":1.2,"duty":1}`, http.StatusNotFound, nil)
	do(t, ts, "POST", "/v1/engine/chips/e1/schedule",
		`{"stress_epochs":4,"sleep_epochs":4,"sleep_temp_c":30,"sleep_vdd":0}`, http.StatusOK, nil)
	do(t, ts, "POST", "/v1/engine/chips/e1/schedule",
		`{"stress_epochs":4}`, http.StatusBadRequest, nil)

	var del EngineDeleteResponse
	do(t, ts, "DELETE", "/v1/engine/chips/e1", "", http.StatusOK, &del)
	if !del.Removed {
		t.Fatalf("delete response: %+v", del)
	}
	do(t, ts, "GET", "/v1/engine/chips/e1", "", http.StatusNotFound, nil)
	do(t, ts, "DELETE", "/v1/engine/chips/e1", "", http.StatusNotFound, nil)
}

func TestEngineMirrorsFleet(t *testing.T) {
	_, ts := engineTestServer(t, Config{})

	do(t, ts, "POST", "/v1/chips", `{"id":"f0","seed":3}`, http.StatusCreated, nil)
	var cv map[string]any
	do(t, ts, "GET", "/v1/engine/chips/f0", "", http.StatusOK, &cv)
	if cv["phase"] != "stress" {
		t.Fatalf("fleet twin: %v", cv)
	}

	// Fleet-backed chips refuse the engine's own delete...
	var er ErrorResponse
	do(t, ts, "DELETE", "/v1/engine/chips/f0", "", http.StatusBadRequest, &er)
	if !strings.Contains(er.Error, "fleet") {
		t.Fatalf("engine delete of fleet chip: %q", er.Error)
	}
	// ...and follow the fleet's delete automatically.
	do(t, ts, "DELETE", "/v1/chips/f0", "", http.StatusOK, nil)
	do(t, ts, "GET", "/v1/engine/chips/f0", "", http.StatusNotFound, nil)
}

func TestEngineSyncOnStartup(t *testing.T) {
	dir := t.TempDir()

	// First life: no engine — a fleet that predates it.
	st1, _, err := store.Open[*fleet.ChipEntry](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Store: st1})
	do(t, ts1, "POST", "/v1/chips", `{"id":"old","seed":11}`, http.StatusCreated, nil)
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: engine on — the pre-engine fleet chip must be synced
	// in at startup.
	st2, _, err := store.Open[*fleet.ChipEntry](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	_, ts2 := engineTestServer(t, Config{Store: st2})
	do(t, ts2, "GET", "/v1/engine/chips/old", "", http.StatusOK, nil)
}

func TestEngineMetricsExposition(t *testing.T) {
	s, ts := engineTestServer(t, Config{MetricsChipLimit: 3})

	var specs []string
	for i := 0; i < 8; i++ {
		specs = append(specs, fmt.Sprintf(`{"id":"m%d","temp_c":80,"vdd":1.2,"duty":1}`, i))
	}
	do(t, ts, "POST", "/v1/engine/chips:batch",
		`{"chips":[`+strings.Join(specs, ",")+`]}`, http.StatusOK, nil)
	for i := 0; i < 2; i++ {
		s.AgingEngine().Tick(context.Background())
	}

	var snap MetricsSnapshot
	do(t, ts, "GET", "/metrics", "", http.StatusOK, &snap)
	if snap.Engine == nil {
		t.Fatal("metrics snapshot has no engine section")
	}
	if snap.Engine.Stats.Chips != 8 || snap.Engine.Stats.Epoch != 2 {
		t.Fatalf("engine stats: %+v", snap.Engine.Stats)
	}
	if snap.Engine.OdometerSum != 16 {
		t.Fatalf("odometer sum %d, want 16", snap.Engine.OdometerSum)
	}
	if len(snap.Engine.Top) != 3 {
		t.Fatalf("top list has %d chips, want the 3-chip cap", len(snap.Engine.Top))
	}

	resp, raw := doRaw(t, ts, "GET", "/metrics?format=prometheus", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape: %d", resp.StatusCode)
	}
	body := string(raw)
	for _, w := range []string{
		"selfheal_engine_epoch 2",
		"selfheal_engine_chips 8",
		"selfheal_engine_odometer_epochs_sum 16",
		"selfheal_engine_ticks_total 2",
		"selfheal_engine_epoch_lag_seconds",
		"selfheal_engine_chips_per_second",
	} {
		if !strings.Contains(body, w) {
			t.Fatalf("prometheus exposition missing %q", w)
		}
	}
	if n := strings.Count(body, "selfheal_engine_chip_odometer_epochs{"); n != 3 {
		t.Fatalf("engine per-chip odometer series = %d, want the 3-chip cap", n)
	}
}

// TestPromChipCardinalityCap drives the fleet-chip exposition past the
// limit and checks only the most-stressed chips keep per-chip series
// while the aggregates cover everyone.
func TestPromChipCardinalityCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MetricsChipLimit: 2})

	for i := 0; i < 4; i++ {
		do(t, ts, "POST", "/v1/chips", fmt.Sprintf(`{"id":"p%d","seed":%d}`, i, i+1), http.StatusCreated, nil)
	}
	// p3 accumulates the most stress time, p2 next.
	do(t, ts, "POST", "/v1/chips/p3/stress", `{"temp_c":105,"vdd":1.32,"hours":10}`, http.StatusOK, nil)
	do(t, ts, "POST", "/v1/chips/p2/stress", `{"temp_c":105,"vdd":1.32,"hours":5}`, http.StatusOK, nil)

	resp, raw := doRaw(t, ts, "GET", "/metrics?format=prometheus", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape: %d", resp.StatusCode)
	}
	body := string(raw)
	if n := strings.Count(body, "selfheal_chip_ops_total{"); n != 2 {
		t.Fatalf("per-chip ops series = %d, want the 2-chip cap", n)
	}
	for _, w := range []string{
		`selfheal_chip_ops_total{chip="p2"`,
		`selfheal_chip_ops_total{chip="p3"`,
		"selfheal_chips 4",
		"selfheal_chip_stress_seconds_sum",
	} {
		if !strings.Contains(body, w) {
			t.Fatalf("prometheus exposition missing %q", w)
		}
	}

	// The JSON body is never truncated.
	var snap MetricsSnapshot
	do(t, ts, "GET", "/metrics", "", http.StatusOK, &snap)
	if len(snap.Chips) != 4 {
		t.Fatalf("JSON metrics lists %d chips, want all 4", len(snap.Chips))
	}
}

func TestEngineTickRoute(t *testing.T) {
	_, ts := engineTestServer(t, Config{})
	do(t, ts, "POST", "/v1/engine/chips:batch",
		`{"chips":[{"id":"t1","temp_c":80,"vdd":1.2,"duty":1}]}`, http.StatusOK, nil)

	// An empty body advances one epoch; a counted body advances many.
	var tick EngineTickResponse
	do(t, ts, "POST", "/v1/engine/tick", "", http.StatusOK, &tick)
	if tick.Ticked != 1 || tick.Epoch != 1 {
		t.Fatalf("single tick = %+v", tick)
	}
	do(t, ts, "POST", "/v1/engine/tick", `{"epochs":9}`, http.StatusOK, &tick)
	if tick.Ticked != 9 || tick.Epoch != 10 {
		t.Fatalf("batch tick = %+v", tick)
	}
	var cv struct {
		Odometer uint64 `json:"odometer_epochs"`
	}
	do(t, ts, "GET", "/v1/engine/chips/t1", "", http.StatusOK, &cv)
	if cv.Odometer != 10 {
		t.Fatalf("odometer %d after 10 manual epochs", cv.Odometer)
	}

	do(t, ts, "POST", "/v1/engine/tick", `{"epochs":0}`, http.StatusBadRequest, nil)
	do(t, ts, "POST", "/v1/engine/tick", `{"epochs":1000000}`, http.StatusBadRequest, nil)

	// A wall-driven clock refuses manual ticks: one clock owner only.
	_, wall := newTestServer(t, Config{EngineEnabled: true, EngineEpoch: time.Hour})
	var er ErrorResponse
	do(t, wall, "POST", "/v1/engine/tick", "", http.StatusConflict, &er)
	if !strings.Contains(er.Error, "-epoch") {
		t.Fatalf("wall-clock refusal %q should point at -epoch", er.Error)
	}

	// No engine, no clock.
	_, off := newTestServer(t, Config{})
	do(t, off, "POST", "/v1/engine/tick", "", http.StatusNotFound, nil)
}
