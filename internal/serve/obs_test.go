// Observability acceptance tests: a batch request on a durable fleet
// yields a retrievable trace whose spans cover the transport
// middleware, the fleet batch scheduler, per-chip lock acquisition and
// the journal group commit; the Prometheus exposition parses and
// carries the per-route histograms, runtime gauges and per-chip aging
// telemetry; and a degraded-mode episode emits structured log lines
// that join to the failing trace by trace_id.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"selfheal/internal/faults"
	"selfheal/internal/fleet"
	"selfheal/internal/obs"
	"selfheal/internal/store"
)

// tracesURL builds the /debug/traces query string, escaping the route
// pattern (which contains a space).
func tracesURL(query url.Values) string {
	return "/debug/traces?" + query.Encode()
}

// waitForTrace polls the trace ring until a trace satisfies pred. The
// root span ends *after* the response body is flushed, so the client
// can observe the response a moment before the trace is retained.
func waitForTrace(t *testing.T, ts *httptest.Server, query url.Values, pred func(obs.TraceView) bool) obs.TraceView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var resp TracesResponse
		do(t, ts, "GET", tracesURL(query), "", http.StatusOK, &resp)
		for _, tr := range resp.Traces {
			if pred(tr) {
				return tr
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no matching trace in ring after 2s; have %d traces", len(resp.Traces))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spanNames collects the set of span names in a trace.
func spanNames(tr obs.TraceView) map[string]int {
	names := make(map[string]int, len(tr.Spans))
	for _, sp := range tr.Spans {
		names[sp.Name]++
	}
	return names
}

func TestBatchTraceAndPromExposition(t *testing.T) {
	st, _, err := store.Open[*fleet.ChipEntry](t.TempDir(), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Store: st})
	t.Cleanup(s.Close)

	do(t, ts, "POST", "/v1/chips:batch",
		`{"chips":[{"id":"c0","seed":7,"kind":"bench"},{"id":"m0","seed":8,"kind":"monitored"}]}`,
		http.StatusOK, nil)

	var batch BatchOpsResponse
	do(t, ts, "POST", "/v1/ops:batch", `{"ops":[
		{"op":"stress","id":"c0","temp_c":110,"vdd":1.3,"ac":true,"hours":24,"sample_hours":6},
		{"op":"measure","id":"c0"},
		{"op":"odometer","id":"m0"}
	]}`, http.StatusOK, &batch)
	if batch.Failed != 0 {
		t.Fatalf("batch failed items: %+v", batch.Results)
	}

	// ---- The trace covers every layer the request crossed. ----
	query := url.Values{"route": {"POST /v1/ops:batch"}}
	tr := waitForTrace(t, ts, query, func(tr obs.TraceView) bool {
		return tr.Route == "POST /v1/ops:batch" && tr.Status == http.StatusOK
	})
	if tr.TraceID == "" {
		t.Fatal("trace has no trace_id")
	}
	names := spanNames(tr)
	for _, want := range []string{
		"serve.gate",     // transport: write-gate middleware
		"fleet.batch",    // fleet: batch scheduling
		"batch.item",     // fleet: worker-pool item
		"chip.lock",      // fleet: per-chip lock acquisition
		"journal.stage",  // journal: record staged
		"journal.commit", // journal: group-commit fsync wait
	} {
		if names[want] == 0 {
			t.Errorf("trace missing span %q; spans: %v", want, names)
		}
	}
	if names["batch.item"] != 3 {
		t.Errorf("batch.item spans = %d, want 3", names["batch.item"])
	}
	// Group-commit batching is visible: at least one commit span was
	// the leader that ran the fsync, annotated with the batch size.
	leader := false
	for _, sp := range tr.Spans {
		if sp.Name == "journal.commit" && sp.Attrs["leader"] == "true" {
			leader = true
			if sp.Attrs["batch_size"] == "" {
				t.Error("leader commit span missing batch_size attr")
			}
		}
	}
	if !leader {
		t.Error("no journal.commit span with leader=true")
	}
	// batch.item spans parent onto the fleet.batch span, and chip.lock
	// spans parent onto a batch.item — the tree mirrors the layers.
	byID := make(map[string]obs.SpanView, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "batch.item":
			if p := byID[sp.Parent]; p.Name != "fleet.batch" {
				t.Errorf("batch.item parent = %q, want fleet.batch", p.Name)
			}
		case "chip.lock":
			if p := byID[sp.Parent]; p.Name != "batch.item" {
				t.Errorf("chip.lock parent = %q, want batch.item", p.Name)
			}
		}
	}

	// ---- Prometheus exposition: valid text format, all families. ----
	resp, raw := doRaw(t, ts, "GET", "/metrics?format=prometheus", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("prometheus Content-Type = %q", ct)
	}
	text := string(raw)
	checkPromExposition(t, text)
	for _, want := range []string{
		`selfheal_request_duration_seconds_bucket{route="POST /v1/ops:batch",le="+Inf"}`,
		`selfheal_requests_total{route="POST /v1/ops:batch",status="200"}`,
		`selfheal_chip_stress_seconds_total{chip="c0",kind="bench"}`,
		`selfheal_chip_degradation_pct{chip="c0"}`,
		`selfheal_chip_degradation_ppm{chip="m0"}`,
		`selfheal_chip_beat_hz{chip="m0"}`,
		`selfheal_journal_fsync_total`,
		"go_goroutines",
		"go_memstats_heap_alloc_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	// ---- The JSON snapshot keeps the per-route histogram too. ----
	var snap MetricsSnapshot
	do(t, ts, "GET", "/metrics?format=json", "", http.StatusOK, &snap)
	rl, ok := snap.LatencyByRoute["POST /v1/ops:batch"]
	if !ok || rl.Count == 0 {
		t.Fatalf("latency_by_route missing batch route: %+v", snap.LatencyByRoute)
	}
	if got := rl.Buckets[len(rl.Buckets)-1]; got.LE != "+Inf" || got.Count != rl.Count {
		t.Errorf("final bucket = %+v, want le=+Inf count=%d", got, rl.Count)
	}

	// An unknown format is a 400, not a silent JSON fallback.
	resp, _ = doRaw(t, ts, "GET", "/metrics?format=xml", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml: status %d, want 400", resp.StatusCode)
	}
}

// checkPromExposition validates the text format: every line is a
// HELP/TYPE comment or a `name{labels} value` sample with a parseable
// value; each family's lines form one contiguous group with at most one
// TYPE line, which precedes the family's samples (a histogram's
// _bucket/_sum/_count samples belong to its family).
func checkPromExposition(t *testing.T, text string) {
	t.Helper()
	typed := make(map[string]string)
	closed := make(map[string]bool) // families whose group has ended
	current := ""
	enter := func(i int, family string) {
		if family == current {
			return
		}
		if closed[family] {
			t.Errorf("line %d: family %s resumes after another family's lines", i+1, family)
		}
		closed[current] = true
		current = family
	}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: empty line in exposition", i+1)
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Errorf("line %d: unexpected comment %q", i+1, line)
				continue
			}
			enter(i, parts[2])
			if parts[1] == "TYPE" {
				if len(parts) != 4 {
					t.Errorf("line %d: malformed TYPE comment %q", i+1, line)
				} else if _, dup := typed[parts[2]]; dup {
					t.Errorf("line %d: second TYPE line for %s", i+1, parts[2])
				} else {
					typed[parts[2]] = parts[3]
				}
			}
			continue
		}
		// Label values may contain spaces ("POST /v1/ops:batch"), so the
		// sample splits at the closing brace, not the first space.
		var name, rest string
		if open := strings.Index(line, "{"); open >= 0 {
			end := strings.LastIndex(line, "}")
			if end < open {
				t.Errorf("line %d: unterminated label set %q", i+1, line)
				continue
			}
			name = line[:open]
			rest = strings.TrimSpace(line[end+1:])
		} else {
			name, rest, _ = strings.Cut(line, " ")
		}
		family := name
		if _, ok := typed[name]; !ok {
			family = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if typed[family] != "histogram" {
				t.Errorf("line %d: sample %q has no preceding TYPE", i+1, name)
			}
		}
		enter(i, family)
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil && rest != "+Inf" {
			t.Errorf("line %d: unparseable value %q", i+1, rest)
		}
	}
}

// lockedWriter serialises concurrent slog writes into one buffer.
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestDegradedEpisodeEmitsLogsAndTrace(t *testing.T) {
	lw := &lockedWriter{}
	logger, err := obs.NewLogger(lw, slog.LevelDebug, "json")
	if err != nil {
		t.Fatal(err)
	}
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
	s, err := New(Config{
		Logger:           logger,
		Store:            st,
		Faults:           inj,
		ProbeInterval:    time.Hour, // keep the episode open for the test
		ProbeMaxInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	do(t, ts, "POST", "/v1/chips", `{"id":"c0","seed":7}`, http.StatusCreated, nil)
	inj.SetDiskFault(faults.DiskFailFsync, 0)
	do(t, ts, "POST", "/v1/chips/c0/stress",
		`{"temp_c":110,"vdd":1.3,"ac":true,"hours":24,"sample_hours":6}`,
		http.StatusServiceUnavailable, nil)

	// The episode-entry log line carries the failing request's trace_id.
	var logTraceID string
	for _, line := range strings.Split(lw.String(), "\n") {
		if line == "" || !strings.Contains(line, "entering degraded read-only mode") {
			continue
		}
		var rec struct {
			Msg     string `json:"msg"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		logTraceID = rec.TraceID
	}
	if logTraceID == "" {
		t.Fatalf("no degraded-mode log line with a trace_id; logs:\n%s", lw.String())
	}

	// errors=only surfaces the failing trace, joined by that trace_id,
	// with the fsync failure attributed to the journal commit span.
	tr := waitForTrace(t, ts, url.Values{"errors": {"only"}}, func(tr obs.TraceView) bool {
		return tr.TraceID == logTraceID
	})
	if tr.Status != http.StatusServiceUnavailable {
		t.Errorf("failing trace status = %d, want 503", tr.Status)
	}
	var commitErr string
	for _, sp := range tr.Spans {
		if sp.Name == "journal.commit" && sp.Error != "" {
			commitErr = sp.Error
		}
	}
	if commitErr == "" {
		t.Fatalf("no failing journal.commit span in trace %+v", tr)
	}
	if !strings.Contains(commitErr, "fsync") && !strings.Contains(commitErr, "injected") {
		t.Errorf("commit span error %q does not look like the injected fsync fault", commitErr)
	}

	// The healthy create beforehand must not match errors=only.
	var resp TracesResponse
	do(t, ts, "GET", tracesURL(url.Values{"errors": {"only"}, "route": {"POST /v1/chips"}}),
		"", http.StatusOK, &resp)
	for _, tr := range resp.Traces {
		if tr.Status == http.StatusCreated {
			t.Errorf("healthy create leaked into errors=only: %+v", tr)
		}
	}
}

// TestObserveSnapshotTraceRingConcurrent hammers the metrics counters,
// the snapshot path and the trace ring from many goroutines at once —
// meaningful under -race, which `make check` runs.
func TestObserveSnapshotTraceRingConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	t.Cleanup(s.Close)
	do(t, ts, "POST", "/v1/chips", `{"id":"c0","seed":7}`, http.StatusCreated, nil)

	const writers, readers, rounds = 8, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.metrics.Observe("GET /hammer", 200+w, time.Duration(i)*time.Microsecond)
				ctx, root := s.tracer.Start(t.Context(), "GET /hammer")
				_, sp := obs.StartSpan(ctx, "hammer.child", obs.Int("i", i))
				sp.End()
				root.SetStatus(200 + w)
				root.End()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.metrics.Snapshot(s.predict, s.fleet, s.faults, s.gate)
				s.tracer.Snapshot(obs.Filter{Route: "GET /hammer"})
				if i%10 == 0 {
					doRaw(t, ts, "GET", "/metrics?format=prometheus", "")
					doRaw(t, ts, "GET", "/debug/traces?limit=5", "")
					doRaw(t, ts, "GET", "/v1/chips/c0/measure", "")
				}
			}
		}()
	}
	wg.Wait()

	snap := s.metrics.Snapshot(s.predict, s.fleet, s.faults, s.gate)
	rs, ok := snap.Requests["GET /hammer"]
	if !ok {
		t.Fatal("hammer route missing from snapshot")
	}
	var total uint64
	for _, n := range rs.ByStatus {
		total += n
	}
	if want := uint64(writers * rounds); total != want {
		t.Errorf("observed %d hammer requests, want %d", total, want)
	}
	if got := s.tracer.Total(); got < uint64(writers*rounds) {
		t.Errorf("tracer completed %d traces, want at least %d", got, writers*rounds)
	}
}
