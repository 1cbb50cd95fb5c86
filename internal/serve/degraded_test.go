// Degraded-mode acceptance tests: a persistent fsync fault flips the
// service into read-only mode (503 + "degraded" + Retry-After on
// mutating routes, reads keep serving, /readyz reports 503), the
// background probe restores write mode once the disk recovers, and no
// acknowledged operation is lost across a hard stop taken mid-episode.
// These stay in the internal test package to reach the metrics gate
// directly.
package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"selfheal/internal/engine"
	"selfheal/internal/faults"
	"selfheal/internal/fleet"
	"selfheal/internal/store"
)

// newDegradedServer starts a durable server whose journal writes and
// fsyncs run through a chaos injector with no probabilistic faults
// armed — tests flip deterministic disk modes on it mid-flight. The
// probe intervals are tightened so auto-recovery is observable within
// a test's patience.
func newDegradedServer(t *testing.T, dir string) (*faults.Injector, fleet.Store, *httptest.Server) {
	t.Helper()
	inj, err := faults.New(faults.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open[*fleet.ChipEntry](dir, store.JournalOptions{
		Hook:     inj.JournalHook(),
		SyncHook: inj.JournalSyncHook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Store:            st,
		Faults:           inj,
		ProbeInterval:    2 * time.Millisecond,
		ProbeMaxInterval: 10 * time.Millisecond,
	})
	t.Cleanup(s.Close)
	return inj, st, ts
}

// doRaw issues a request and returns the response with its body read,
// so callers can assert on headers as well as the decoded JSON.
func doRaw(t *testing.T, ts *httptest.Server, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func metricsSnapshot(t *testing.T, ts *httptest.Server) MetricsSnapshot {
	t.Helper()
	var snap MetricsSnapshot
	do(t, ts, "GET", "/metrics", "", http.StatusOK, &snap)
	return snap
}

func TestDegradedModeSurvivesDiskFaultAndAutoRecovers(t *testing.T) {
	dir := t.TempDir()

	// ---- Server A: healthy writes, then a persistent fsync fault. ----
	inj, _, ts := newDegradedServer(t, dir)
	do(t, ts, "POST", "/v1/chips", `{"id":"c0","seed":7}`, http.StatusCreated, nil)
	do(t, ts, "POST", "/v1/chips/c0/stress", `{"temp_c":110,"vdd":1.32,"ac":true,"hours":24,"sample_hours":6}`, http.StatusOK, nil)
	var m1 ReadingResponse
	do(t, ts, "GET", "/v1/chips/c0/measure", "", http.StatusOK, &m1)

	inj.SetDiskFault(faults.DiskFailFsync, 0) // unlimited: the disk is dying

	// The write that hits the bad disk is refused un-acknowledged, with
	// the degraded error code and a Retry-After hint.
	resp, raw := doRaw(t, ts, "POST", "/v1/chips", `{"id":"doomed","seed":9}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write on failing disk: status %d, want 503; body %s", resp.StatusCode, raw)
	}
	var eb ErrorResponse
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	if eb.Code != CodeDegraded {
		t.Fatalf("error code = %q, want %q; body %s", eb.Code, CodeDegraded, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}

	// Subsequent writes are turned away at the gate — including the
	// journaled sensor reads, which would fork replay if let through.
	for _, probe := range []struct{ method, path, body string }{
		{"POST", "/v1/chips/c0/stress", `{"temp_c":85,"vdd":1.2,"hours":1}`},
		{"GET", "/v1/chips/c0/measure", ""},
		{"DELETE", "/v1/chips/c0", ""},
	} {
		resp, raw := doRaw(t, ts, probe.method, probe.path, probe.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("degraded %s %s: status %d, want 503; body %s", probe.method, probe.path, resp.StatusCode, raw)
		}
		var eb ErrorResponse
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Code != CodeDegraded {
			t.Fatalf("degraded %s %s: code %q err %v", probe.method, probe.path, eb.Code, err)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("degraded %s %s missing Retry-After", probe.method, probe.path)
		}
	}

	// Pure reads keep serving from memory.
	var list ChipListResponse
	do(t, ts, "GET", "/v1/chips", "", http.StatusOK, &list)
	if len(list.Chips) != 1 || list.Chips[0].ID != "c0" {
		t.Fatalf("degraded list = %+v, want the surviving fleet", list)
	}
	do(t, ts, "POST", "/v1/predict/shift", `{"temp_c":110,"vdd":1.2,"duty":0.5,"stress_hours":100}`, http.StatusOK, nil)

	// Liveness vs write-readiness split.
	do(t, ts, "GET", "/healthz", "", http.StatusOK, nil)
	resp, raw = doRaw(t, ts, "GET", "/readyz", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while degraded: status %d, body %s", resp.StatusCode, raw)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(raw, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "degraded" || ready.WriteReady || ready.Reason == "" {
		t.Fatalf("/readyz body = %+v", ready)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 missing Retry-After")
	}

	snap := metricsSnapshot(t, ts)
	if snap.Degraded == nil {
		t.Fatal("metrics missing degraded block")
	}
	if snap.Degraded.WriteReady || snap.Degraded.Enters < 1 || snap.Degraded.WritesRejected < 3 {
		t.Fatalf("degraded metrics = %+v", snap.Degraded)
	}

	// ---- Hard stop mid-episode; Server B must hold every ack'd op. ----
	ts.Close() // no journal.Close, no drain

	_, _, tsB := newDegradedServer(t, dir)
	var m1b ReadingResponse
	do(t, tsB, "GET", "/v1/chips", "", http.StatusOK, &list)
	if len(list.Chips) != 1 || list.Chips[0].ID != "c0" {
		t.Fatalf("post-restart fleet = %+v: acknowledged create lost or refused write leaked", list)
	}
	// Replay rebuilt the exact aged state: re-measuring consumes the
	// same RNG draw the pre-crash measure did.
	do(t, tsB, "GET", "/v1/chips/c0/measure", "", http.StatusOK, &m1b)
	if m1b != m1 {
		t.Fatalf("post-restart measure = %+v, want pre-crash %+v", m1b, m1)
	}

	// ---- Server B: the fault clears and the probe auto-recovers. ----
	tsB.Close()

	inj2, _, ts2 := newDegradedServer(t, dir)
	inj2.SetDiskFault(faults.DiskFailFsync, 0)
	// Trip with a create: an unjournalable create rolls back, so the
	// live state stays aligned with the journal for the final replay
	// check (TestRefusedFleetWriteLeavesNoTrace trips with a stress).
	if resp, _ := doRaw(t, ts2, "POST", "/v1/chips", `{"id":"tripper","seed":5}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("trip write: status %d, want 503", resp.StatusCode)
	}
	if resp, _ := doRaw(t, ts2, "GET", "/readyz", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after trip: status %d, want 503", resp.StatusCode)
	}

	inj2.SetDiskFault(faults.DiskNone, 0) // the disk comes back
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, _ := doRaw(t, ts2, "GET", "/readyz", ""); resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never recovered after the disk fault cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Write mode restored without a restart; the retried op succeeds.
	do(t, ts2, "POST", "/v1/chips/c0/stress", `{"temp_c":85,"vdd":1.2,"hours":2}`, http.StatusOK, nil)
	var m2 ReadingResponse
	do(t, ts2, "GET", "/v1/chips/c0/measure", "", http.StatusOK, &m2)

	snap = metricsSnapshot(t, ts2)
	if snap.Degraded == nil || !snap.Degraded.WriteReady || snap.Degraded.Exits < 1 || snap.Degraded.Probes < 1 {
		t.Fatalf("post-recovery degraded metrics = %+v", snap.Degraded)
	}

	// ---- Hard stop again; Server C sees the post-recovery history. ----
	ts2.Close()
	_, stC, tsC := newDegradedServer(t, dir)
	defer stC.Close()
	var m2c ReadingResponse
	do(t, tsC, "GET", "/v1/chips/c0/measure", "", http.StatusOK, &m2c)
	if m2c != m2 {
		t.Fatalf("final restart measure = %+v, want %+v", m2c, m2)
	}
}

// TestReadyzHealthyAndDegradedMetricsBaseline: a healthy durable
// server reports write-readiness on /readyz and a write-ready degraded
// block in /metrics.
func TestReadyzHealthyAndDegradedMetricsBaseline(t *testing.T) {
	_, _, ts := newDegradedServer(t, t.TempDir())
	var ready ReadyResponse
	do(t, ts, "GET", "/readyz", "", http.StatusOK, &ready)
	if ready.Status != "ok" || !ready.WriteReady || ready.Reason != "" {
		t.Fatalf("/readyz = %+v", ready)
	}
	snap := metricsSnapshot(t, ts)
	if snap.Degraded == nil || !snap.Degraded.WriteReady || snap.Degraded.Enters != 0 {
		t.Fatalf("healthy degraded block = %+v", snap.Degraded)
	}
}

// TestReadyzInMemoryServer: without a durable store there is no disk
// to degrade on — /readyz is always write-ready and /metrics carries
// no degraded block.
func TestReadyzInMemoryServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var ready ReadyResponse
	do(t, ts, "GET", "/readyz", "", http.StatusOK, &ready)
	if !ready.WriteReady {
		t.Fatalf("/readyz = %+v", ready)
	}
	snap := metricsSnapshot(t, ts)
	if snap.Degraded != nil {
		t.Fatalf("in-memory server exported degraded block %+v", snap.Degraded)
	}
}

// TestGroupCommitBatchingVisibleInMetrics drives 8-way concurrent
// mutators over HTTP against a journal whose fsync is slow enough to
// pile appends onto the group-commit leader, and asserts the batching
// shows up in /metrics (sync_batch_max > 1, fewer fsyncs than appends).
func TestGroupCommitBatchingVisibleInMetrics(t *testing.T) {
	st, _, err := store.Open[*fleet.ChipEntry](t.TempDir(), store.JournalOptions{
		SyncHook: func() error { time.Sleep(2 * time.Millisecond); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, ts := newTestServer(t, Config{Store: st})
	t.Cleanup(s.Close)

	const fleetSize = 8
	for i := 0; i < fleetSize; i++ {
		do(t, ts, "POST", "/v1/chips", `{"id":"c`+string(rune('0'+i))+`","seed":7}`, http.StatusCreated, nil)
	}
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; ; round++ {
		var wg sync.WaitGroup
		for i := 0; i < fleetSize; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := ts.Client().Post(
					ts.URL+"/v1/chips/c"+string(rune('0'+i))+"/stress",
					"application/json",
					strings.NewReader(`{"temp_c":85,"vdd":1.2,"hours":1}`),
				)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(i)
		}
		wg.Wait()
		snap := metricsSnapshot(t, ts)
		if snap.Journal == nil {
			t.Fatal("metrics missing journal block")
		}
		if snap.Journal.SyncBatchMax > 1 {
			if snap.Journal.FsyncCount >= snap.Journal.Appends {
				t.Fatalf("batched (max %d) yet fsyncs %d ≥ appends %d",
					snap.Journal.SyncBatchMax, snap.Journal.FsyncCount, snap.Journal.Appends)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no batch > 1 after %d rounds: %+v", round+1, snap.Journal)
		}
	}
}

// newDegradedEngineServer is a durable server with the aging engine on
// a manual clock, whose journal writes and fsyncs run through a chaos
// injector with no probabilistic faults armed.
func newDegradedEngineServer(t *testing.T) (*faults.Injector, *Server, *httptest.Server) {
	t.Helper()
	inj, err := faults.New(faults.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open[*fleet.ChipEntry](t.TempDir(), store.JournalOptions{
		Hook:     inj.JournalHook(),
		SyncHook: inj.JournalSyncHook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, ts := engineTestServer(t, Config{
		Store:            st,
		ProbeInterval:    2 * time.Millisecond,
		ProbeMaxInterval: 10 * time.Millisecond,
	})
	return inj, s, ts
}

// wantDegraded fails unless resp is a 503 with the degraded code and a
// Retry-After.
func wantDegraded(t *testing.T, what string, resp *http.Response, raw []byte) {
	t.Helper()
	var eb ErrorResponse
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("%s: decode %q: %v", what, raw, err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Code != CodeDegraded {
		t.Fatalf("%s: status %d code %q, want 503 %q; body %s", what, resp.StatusCode, eb.Code, CodeDegraded, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("%s: degraded 503 missing Retry-After", what)
	}
}

// TestEngineWriteOnFailingDiskTripsGate: an engine write whose commit
// fails enters degraded mode exactly like a fleet write — 503 degraded
// with a Retry-After, /readyz red — and the probe restores write mode
// once the disk recovers.
func TestEngineWriteOnFailingDiskTripsGate(t *testing.T) {
	inj, _, ts := newDegradedEngineServer(t)
	do(t, ts, "POST", "/v1/engine/chips:batch", `{"chips":[{"id":"e1","temp_c":80,"vdd":1.2,"duty":1}]}`, http.StatusOK, nil)

	inj.SetDiskFault(faults.DiskFailFsync, 0)
	resp, raw := doRaw(t, ts, "POST", "/v1/engine/chips/e1/condition", `{"temp_c":110,"vdd":1.32,"duty":1}`)
	wantDegraded(t, "condition on failing disk", resp, raw)
	if resp, raw := doRaw(t, ts, "GET", "/readyz", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after failed engine write: status %d, want 503; body %s", resp.StatusCode, raw)
	}
	resp, raw = doRaw(t, ts, "POST", "/v1/engine/chips/e1/schedule", `{"stress_epochs":2,"sleep_epochs":2,"sleep_temp_c":110,"sleep_vdd":-0.3}`)
	wantDegraded(t, "schedule while degraded", resp, raw)

	inj.SetDiskFault(faults.DiskNone, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, _ := doRaw(t, ts, "GET", "/readyz", ""); resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never recovered after the disk fault cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	do(t, ts, "POST", "/v1/engine/chips/e1/condition", `{"temp_c":110,"vdd":1.32,"duty":1}`, http.StatusOK, nil)
}

// TestEngineFlushFailureTripsGate: ticks whose epoch flush fails trip
// the gate with no HTTP write involved, so the next registration is
// turned away at the gate instead of failing per item.
func TestEngineFlushFailureTripsGate(t *testing.T) {
	inj, s, ts := newDegradedEngineServer(t)
	do(t, ts, "POST", "/v1/engine/chips:batch", `{"chips":[{"id":"e1","temp_c":80,"vdd":1.2,"duty":1}]}`, http.StatusOK, nil)

	inj.SetDiskFault(faults.DiskFailFsync, 0)
	eng := s.AgingEngine()
	for i := 0; i < 64 && eng.Stats().CommitErrors == 0; i++ {
		eng.Tick(context.Background())
	}
	if eng.Stats().CommitErrors == 0 {
		t.Fatal("no epoch flush failed in 64 ticks")
	}
	if resp, raw := doRaw(t, ts, "GET", "/readyz", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after failed epoch flush: status %d, want 503; body %s", resp.StatusCode, raw)
	}
	resp, raw := doRaw(t, ts, "POST", "/v1/engine/chips:batch", `{"chips":[{"id":"e2","temp_c":80,"vdd":1.2,"duty":1}]}`)
	wantDegraded(t, "registration after failed flush", resp, raw)
}

// TestNonFiniteDutyRefusedBeforeCommit: a NaN or ±Inf duty is a
// validation error the engine refuses before committing, so it neither
// counts as a commit error nor takes the node out of write mode.
func TestNonFiniteDutyRefusedBeforeCommit(t *testing.T) {
	_, s, ts := newDegradedEngineServer(t)
	ctx := context.Background()
	eng := s.AgingEngine()
	if err := eng.Register(ctx, engine.Spec{ID: "e1", TempC: 80, Vdd: 1.2, Duty: 1}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := eng.Register(ctx, engine.Spec{ID: "bad", TempC: 80, Vdd: 1.2, Duty: d}); err == nil {
			t.Fatalf("Register with duty %v accepted", d)
		}
		if err := eng.SetCondition(ctx, "e1", engine.Cond{TempC: 80, Vdd: 1.2, Duty: d}); err == nil {
			t.Fatalf("SetCondition with duty %v accepted", d)
		}
	}
	if n := eng.Stats().CommitErrors; n != 0 {
		t.Fatalf("commit_errors = %d after refused duties, want 0", n)
	}
	do(t, ts, "GET", "/readyz", "", http.StatusOK, nil)
}

// TestRefusedFleetWriteLeavesNoTrace: a fleet stress refused with 503
// degraded (its fsync failed) leaves the die as the journal has it, so
// once write mode is back the next acked read is exactly what a
// restart replays.
func TestRefusedFleetWriteLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	inj, st, ts := newDegradedServer(t, dir)
	do(t, ts, "POST", "/v1/chips", `{"id":"c0","seed":7}`, http.StatusCreated, nil)

	inj.SetDiskFault(faults.DiskFailFsync, 0)
	resp, raw := doRaw(t, ts, "POST", "/v1/chips/c0/stress", `{"temp_c":110,"vdd":1.32,"hours":24}`)
	wantDegraded(t, "stress on failing disk", resp, raw)
	inj.SetDiskFault(faults.DiskNone, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, _ := doRaw(t, ts, "GET", "/readyz", ""); resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never recovered after the disk fault cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	do(t, ts, "POST", "/v1/chips/c0/stress", `{"temp_c":110,"vdd":1.32,"hours":1}`, http.StatusOK, nil)
	var acked fleet.ReadingResponse
	do(t, ts, "GET", "/v1/chips/c0/measure", "", http.StatusOK, &acked)

	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := store.Open[*fleet.ChipEntry](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	restarted, err := fleet.NewService(reopened)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := restarted.Measure(context.Background(), "c0")
	if err != nil {
		t.Fatal(err)
	}
	if replayed != acked {
		t.Fatalf("acked read %+v, a restart replays %+v", acked, replayed)
	}
}
