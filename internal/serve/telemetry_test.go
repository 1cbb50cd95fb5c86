package serve

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"selfheal/internal/obs/tsdb"
)

// tickN advances the manual engine clock n epochs.
func tickN(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	do(t, ts, "POST", "/v1/engine/tick", fmt.Sprintf(`{"epochs":%d}`, n), http.StatusOK, nil)
}

func TestTelemetrySeriesAndSLO(t *testing.T) {
	_, ts := engineTestServer(t, Config{GuardEnabled: true})
	do(t, ts, "POST", "/v1/engine/chips:batch",
		`{"chips":[
			{"id":"t0","temp_c":80,"vdd":1.2,"duty":1},
			{"id":"t1","temp_c":90,"vdd":1.25,"duty":0.8},
			{"id":"t2","temp_c":70,"vdd":1.1,"duty":0.5}
		]}`, http.StatusOK, nil)
	// A mutation before the first tick so mutation deltas have data.
	do(t, ts, "POST", "/v1/chips", `{"id":"m0","seed":1}`, http.StatusCreated, nil)
	tickN(t, ts, 6)

	var tel TelemetryResponse
	do(t, ts, "GET", "/v1/telemetry", "", http.StatusOK, &tel)
	if tel.NodeID != "single" {
		t.Fatalf("node_id = %q, want single", tel.NodeID)
	}
	if tel.Epoch != 6 {
		t.Fatalf("newest epoch = %d, want 6", tel.Epoch)
	}
	if tel.LastUnix == 0 {
		t.Fatal("last_unix unset after recording epochs")
	}
	for _, name := range []string{
		"margin_min_v", "margin_p50_v", "margin_p95_v",
		"aging_rate_p50_v", "aging_rate_max_v",
		"mutations_per_epoch", "epoch_lag_seconds", "engine_chips",
		"quarantined_chips", "guard_releases_total",
		"slo_ok_mutation_availability", "slo_burn_margin_recovery",
	} {
		if len(tel.Series[name]) == 0 {
			t.Fatalf("series %q missing from /v1/telemetry (have %d series)", name, len(tel.Series))
		}
	}
	if got := tel.Series["margin_min_v"]; len(got) != 6 {
		t.Fatalf("margin_min_v has %d samples, want 6", len(got))
	}
	// 3 registered engine chips plus m0: store creates register too.
	if got := tel.Series["engine_chips"]; got[len(got)-1].Value != 4 {
		t.Fatalf("engine_chips latest = %v, want 4", got[len(got)-1].Value)
	}
	// Aging rates are deltas: one fewer sample than epochs.
	if got := tel.Series["aging_rate_p50_v"]; len(got) != 5 {
		t.Fatalf("aging_rate_p50_v has %d samples, want 5", len(got))
	}
	// All three standing objectives evaluated, all green on a healthy
	// manual-clock fleet.
	if len(tel.SLO) != 3 {
		t.Fatalf("slo statuses = %+v, want 3", tel.SLO)
	}
	for _, st := range tel.SLO {
		if !st.OK {
			t.Fatalf("SLO %s not OK on a healthy fleet: %+v", st.SLO, st)
		}
	}

	// Stressed chips age: the most-aged margin must sink below p95.
	mm := tel.Series["margin_min_v"]
	mp := tel.Series["margin_p95_v"]
	if mm[len(mm)-1].Value > mp[len(mp)-1].Value {
		t.Fatalf("margin_min (%v) above margin_p95 (%v)", mm[len(mm)-1].Value, mp[len(mp)-1].Value)
	}
}

func TestTelemetryQueryGrammar(t *testing.T) {
	_, ts := engineTestServer(t, Config{})
	do(t, ts, "POST", "/v1/engine/chips:batch",
		`{"chips":[{"id":"q0","temp_c":80,"vdd":1.2,"duty":1}]}`, http.StatusOK, nil)
	tickN(t, ts, 10)

	var tel TelemetryResponse
	do(t, ts, "GET", "/v1/telemetry?series=margin_min_v&since=6&limit=3", "", http.StatusOK, &tel)
	if len(tel.Series) != 1 {
		t.Fatalf("series filter leaked: got %d series", len(tel.Series))
	}
	got := tel.Series["margin_min_v"]
	if len(got) != 3 || got[0].Epoch != 8 || got[2].Epoch != 10 {
		t.Fatalf("since+limit window = %+v, want epochs 8..10", got)
	}
	// Epoch reflects the whole DB, not the filtered view.
	if tel.Epoch != 10 {
		t.Fatalf("epoch = %d, want 10", tel.Epoch)
	}

	// Epochs 1..10 under step=5 land in buckets 0 (1-4), 1 (5-9), 2 (10).
	do(t, ts, "GET", "/v1/telemetry?series=margin_min_v&step=5", "", http.StatusOK, &tel)
	if got := tel.Series["margin_min_v"]; len(got) != 3 {
		t.Fatalf("step=5 over epochs 1..10 gave %d buckets, want 3", len(got))
	}

	for _, q := range []string{"since=x", "step=0", "limit=-1"} {
		do(t, ts, "GET", "/v1/telemetry?"+q, "", http.StatusBadRequest, nil)
	}
}

// startTelemetryCluster boots a two-node engine-enabled cluster with
// manual clocks, returning the servers, their URLs, and the raw
// httptest servers (so a test can kill one node).
func startTelemetryCluster(t *testing.T) (srvs map[string]*Server, urls map[string]string, raws map[string]*httptest.Server) {
	t.Helper()
	swaps := map[string]*swapHandler{"a": {}, "b": {}}
	urls = make(map[string]string, 2)
	raws = make(map[string]*httptest.Server, 2)
	for _, id := range []string{"a", "b"} {
		ts := httptest.NewServer(swaps[id])
		t.Cleanup(ts.Close)
		urls[id] = ts.URL
		raws[id] = ts
	}
	srvs = make(map[string]*Server, 2)
	for _, id := range []string{"a", "b"} {
		s, err := New(Config{
			Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
			Cluster:       &ClusterConfig{NodeID: id, Peers: urls},
			EngineEnabled: true,
			EngineEpoch:   -1,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		t.Cleanup(s.Close)
		srvs[id] = s
		var h http.Handler = s.Handler()
		swaps[id].h.Store(&h)
	}
	return srvs, urls, raws
}

func TestFleetTelemetryFederation(t *testing.T) {
	_, _, raws := startTelemetryCluster(t)
	for _, id := range []string{"a", "b"} {
		ts := raws[id]
		do(t, ts, "POST", "/v1/engine/chips:batch",
			fmt.Sprintf(`{"chips":[{"id":"f-%s","temp_c":80,"vdd":1.2,"duty":1}]}`, id),
			http.StatusOK, nil)
		tickN(t, ts, 3)
	}

	// Any node answers for the whole fleet; both peers fresh.
	var fleet FleetTelemetryResponse
	do(t, raws["a"], "GET", "/v1/fleet/telemetry", "", http.StatusOK, &fleet)
	if fleet.NodeID != "a" || len(fleet.Nodes) != 2 {
		t.Fatalf("fleet from a = %+v, want 2 nodes", fleet)
	}
	byID := map[string]NodeTelemetry{}
	for _, n := range fleet.Nodes {
		byID[n.NodeID] = n
	}
	if !byID["a"].Self || byID["b"].Self {
		t.Fatalf("self flags wrong: a.self=%v b.self=%v", byID["a"].Self, byID["b"].Self)
	}
	for _, id := range []string{"a", "b"} {
		n := byID[id]
		if n.Stale || n.Error != "" || n.Telemetry == nil {
			t.Fatalf("node %s section = %+v, want fresh", id, n)
		}
		if n.Telemetry.Epoch != 3 || len(n.Telemetry.Series["margin_min_v"]) == 0 {
			t.Fatalf("node %s telemetry = %+v, want epoch 3 with margin series", id, n.Telemetry)
		}
	}
	if fleet.StaleNodes != 0 {
		t.Fatalf("stale_nodes = %d, want 0", fleet.StaleNodes)
	}

	// Query params federate: the filter applies to every section. A
	// fresh response var — decoding into the reused one would merge the
	// old series maps through the retained Telemetry pointers.
	var filtered FleetTelemetryResponse
	do(t, raws["b"], "GET", "/v1/fleet/telemetry?series=engine_chips&limit=1", "", http.StatusOK, &filtered)
	for _, n := range filtered.Nodes {
		if len(n.Telemetry.Series) != 1 || len(n.Telemetry.Series["engine_chips"]) != 1 {
			t.Fatalf("federated filter leaked on %s: %+v", n.NodeID, n.Telemetry.Series)
		}
	}

	// Kill b: the fleet view from a must mark b stale with an error —
	// a hole in the view, not a failed response.
	raws["b"].Close()
	var holed FleetTelemetryResponse
	do(t, raws["a"], "GET", "/v1/fleet/telemetry", "", http.StatusOK, &holed)
	byID = map[string]NodeTelemetry{}
	for _, n := range holed.Nodes {
		byID[n.NodeID] = n
	}
	if n := byID["b"]; !n.Stale || n.Error == "" {
		t.Fatalf("killed node b section = %+v, want stale with error", n)
	}
	if n := byID["a"]; n.Stale {
		t.Fatalf("live node a marked stale: %+v", n)
	}
	if holed.StaleNodes != 1 {
		t.Fatalf("stale_nodes = %d, want 1", holed.StaleNodes)
	}

	// The Prometheus federation branch renders per-node health.
	resp, err := http.Get(raws["a"].URL + "/metrics?federate=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	checkPromExposition(t, text)
	for _, want := range []string{
		`telemetry_federate_up{node="a"} 1`,
		`telemetry_federate_up{node="b"} 0`,
		`telemetry_federate_stale{node="b"} 1`,
		`telemetry_margin_min_v{node="a"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics?federate=1 missing %q:\n%s", want, text)
		}
	}
}

// TestSLOMarginRecoveryBreach drives the monitor directly: a window
// where most releases miss the 90% recovery bar must breach the
// paper's-headline SLO and push a typed alert, then recover once the
// counters advance in lockstep again.
func TestSLOMarginRecoveryBreach(t *testing.T) {
	m := newSLOMonitor(sloConfig{Window: 5})
	db := tsdb.New(64)

	// Epochs 1..3: 3 releases, all recovered ≥90% — green.
	for e := uint64(1); e <= 3; e++ {
		db.Append("guard_releases_total", e, float64(e))
		db.Append("guard_recovered90_total", e, float64(e))
		m.evaluate(e, db)
	}
	statuses, alerts := m.snapshot(10)
	for _, st := range statuses {
		if st.SLO == SLOMarginRecovery && !st.OK {
			t.Fatalf("green window breached: %+v", st)
		}
	}
	if len(alerts) != 0 {
		t.Fatalf("alerts on a green window: %+v", alerts)
	}

	// Epochs 4..6: releases keep coming, recoveries stall — breach.
	for e := uint64(4); e <= 6; e++ {
		db.Append("guard_releases_total", e, float64(e+4))
		db.Append("guard_recovered90_total", e, 3)
		m.evaluate(e, db)
	}
	statuses, alerts = m.snapshot(10)
	var mr SLOStatus
	for _, st := range statuses {
		if st.SLO == SLOMarginRecovery {
			mr = st
		}
	}
	if mr.OK || mr.Burn <= 1 {
		t.Fatalf("stalled recovery did not breach: %+v", mr)
	}
	if len(alerts) == 0 || alerts[0].SLO != SLOMarginRecovery || alerts[0].Kind != "breach" {
		t.Fatalf("alerts = %+v, want a margin_recovery breach", alerts)
	}
	_, breaches := m.counters()
	if breaches == 0 {
		t.Fatal("breach counter did not advance")
	}

	// The window slides past the stall with counters in lockstep again
	// — recovered, with the matching typed alert.
	for e := uint64(7); e <= 12; e++ {
		db.Append("guard_releases_total", e, float64(e+4))
		db.Append("guard_recovered90_total", e, float64(e+4))
		m.evaluate(e, db)
	}
	statuses, alerts = m.snapshot(1)
	for _, st := range statuses {
		if st.SLO == SLOMarginRecovery && !st.OK {
			t.Fatalf("monitor stuck in breach: %+v", st)
		}
	}
	if len(alerts) != 1 || alerts[0].Kind != "recovered" {
		t.Fatalf("newest alert = %+v, want recovered", alerts)
	}
}

// TestTelemetryConcurrentScrapes is the race hammer: federation
// scrapes, trace-ring reads, engine ticks and mutations all at once.
// Run with -race (CI does) to make it meaningful.
func TestTelemetryConcurrentScrapes(t *testing.T) {
	_, urls, raws := startTelemetryCluster(t)
	for _, id := range []string{"a", "b"} {
		do(t, raws[id], "POST", "/v1/engine/chips:batch",
			fmt.Sprintf(`{"chips":[{"id":"r-%s","temp_c":90,"vdd":1.25,"duty":1}]}`, id),
			http.StatusOK, nil)
	}
	get := func(url string) {
		resp, err := http.Get(url)
		if err != nil {
			return // the point is races, not availability
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var wg sync.WaitGroup
	const iters = 30
	for _, id := range []string{"a", "b"} {
		id := id
		wg.Add(4)
		go func() { // epochs keep recording
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tickN(t, raws[id], 1)
			}
		}()
		go func() { // federation fans out while epochs record
			defer wg.Done()
			for i := 0; i < iters; i++ {
				get(urls[id] + "/v1/fleet/telemetry")
			}
		}()
		go func() { // trace ring reads race the middleware writes
			defer wg.Done()
			for i := 0; i < iters; i++ {
				get(urls[id] + "/debug/traces")
				get(urls[id] + "/v1/telemetry?limit=5")
			}
		}()
		go func(id string) { // mutations feed the throughput counters
			defer wg.Done()
			for i := 0; i < iters; i++ {
				do(t, raws[id], "POST", "/v1/chips",
					fmt.Sprintf(`{"id":"race-%s-%d","seed":1}`, id, i), http.StatusCreated, nil)
			}
		}(id)
	}
	wg.Wait()
	var fleet FleetTelemetryResponse
	do(t, raws["a"], "GET", "/v1/fleet/telemetry", "", http.StatusOK, &fleet)
	if len(fleet.Nodes) != 2 || fleet.StaleNodes != 0 {
		t.Fatalf("fleet after hammer = %+v, want 2 fresh nodes", fleet)
	}
}

// TestTelemetryLateRegistrationRate: a chip registered between ticks
// contributes no aging rate on its first recorded epoch and does on
// its second — a hot newcomer then sets aging_rate_max_v to exactly
// its own Vth step.
func TestTelemetryLateRegistrationRate(t *testing.T) {
	s, ts := engineTestServer(t, Config{})
	ids := []string{"r0", "r1", "r2"}
	do(t, ts, "POST", "/v1/engine/chips:batch",
		`{"chips":[
			{"id":"r0","temp_c":80,"vdd":1.2,"duty":1},
			{"id":"r1","temp_c":90,"vdd":1.25,"duty":0.8},
			{"id":"r2","temp_c":70,"vdd":1.1,"duty":0.5}
		]}`, http.StatusOK, nil)
	tickN(t, ts, 3)
	vth := func(id string) float64 {
		cv, ok := s.AgingEngine().Snapshot().Chip(id)
		if !ok {
			t.Fatalf("chip %s missing", id)
		}
		return cv.VthShift
	}
	// maxRate is the largest Vth step since before, over ids.
	maxRate := func(before map[string]float64, ids ...string) float64 {
		m := math.Inf(-1)
		for _, id := range ids {
			m = math.Max(m, vth(id)-before[id])
		}
		return m
	}
	latestMax := func() tsdb.Sample {
		sm, ok := s.telem.db.Latest("aging_rate_max_v")
		if !ok {
			t.Fatal("no aging_rate_max_v sample")
		}
		return sm
	}
	before := map[string]float64{}
	for _, id := range ids {
		before[id] = vth(id)
	}
	do(t, ts, "POST", "/v1/engine/chips:batch",
		`{"chips":[{"id":"late","temp_c":110,"vdd":1.32,"duty":1}]}`, http.StatusOK, nil)

	tickN(t, ts, 1)
	if sm := latestMax(); sm.Epoch != 4 || sm.Value != maxRate(before, ids...) {
		t.Fatalf("first epoch with the newcomer: aging_rate_max_v %+v, want %v over the old chips only",
			sm, maxRate(before, ids...))
	}
	for _, id := range append(ids, "late") {
		before[id] = vth(id)
	}
	tickN(t, ts, 1)
	want := vth("late") - before["late"]
	if sm := latestMax(); sm.Epoch != 5 || sm.Value != want || want != maxRate(before, append(ids, "late")...) {
		t.Fatalf("second epoch: aging_rate_max_v %+v, want the newcomer's step %v", sm, want)
	}
}
