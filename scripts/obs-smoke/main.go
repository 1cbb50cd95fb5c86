// Command obs-smoke is the observability smoke test CI runs after the
// bench smoke: it builds selfheal-serve, boots a durable fleet with
// JSON logs and the debug listener enabled, drives one batch through
// it, and then verifies the whole telemetry surface end to end — the
// JSON and Prometheus metric expositions, a retrievable trace for the
// batch with the journal commit visible, the pprof index, and a
// structured log line carrying a trace_id.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"selfheal/scripts/internal/harness"
)

// lockedBuffer collects the server's stderr while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func main() {
	tmp, err := os.MkdirTemp("", "obs-smoke-")
	if err != nil {
		harness.Fatalf("tempdir: %v", err)
	}
	defer os.RemoveAll(tmp)
	bin := harness.Build(tmp, false)

	debugAddr := harness.FreePort()
	logs := &lockedBuffer{}
	srv := harness.Start("server", bin, harness.FreePort(), nil, logs,
		"-debug-addr", debugAddr,
		"-data", filepath.Join(tmp, "data"),
		"-log-format", "json",
		"-log-level", "debug",
		"-grace", "2s",
	)
	defer srv.Stop()

	base := srv.Base
	debugBase := "http://" + debugAddr

	// ---- Liveness: wait for the server to come up. ----
	srv.WaitHealthy(10 * time.Second)

	// ---- Drive one batch through a durable fleet. ----
	harness.MustPost(base+"/v1/chips", `{"id":"c0","seed":7,"kind":"bench"}`, http.StatusCreated)
	harness.MustPost(base+"/v1/chips", `{"id":"m0","seed":8,"kind":"monitored"}`, http.StatusCreated)
	var batch struct {
		Failed int `json:"failed"`
	}
	raw := harness.MustPost(base+"/v1/ops:batch", `{"ops":[
		{"op":"stress","id":"c0","temp_c":110,"vdd":1.3,"ac":true,"hours":24,"sample_hours":6},
		{"op":"measure","id":"c0"},
		{"op":"odometer","id":"m0"}
	]}`, http.StatusOK)
	if err := json.Unmarshal(raw, &batch); err != nil {
		harness.Fatalf("decode batch response %s: %v", raw, err)
	}
	if batch.Failed != 0 {
		harness.Fatalf("batch had %d failed items: %s", batch.Failed, raw)
	}

	// ---- Both metric expositions. ----
	var snap struct {
		LatencyByRoute map[string]json.RawMessage `json:"latency_by_route"`
	}
	if err := json.Unmarshal(harness.MustGet(base+"/metrics", http.StatusOK), &snap); err != nil {
		harness.Fatalf("decode JSON metrics: %v", err)
	}
	if _, ok := snap.LatencyByRoute["POST /v1/ops:batch"]; !ok {
		harness.Fatalf("JSON metrics missing latency_by_route for the batch route")
	}
	prom := string(harness.MustGet(base+"/metrics?format=prometheus", http.StatusOK))
	for _, want := range []string{
		`selfheal_request_duration_seconds_bucket{route="POST /v1/ops:batch",le="+Inf"}`,
		`selfheal_chip_degradation_pct{chip="c0"}`,
		`selfheal_chip_degradation_ppm{chip="m0"}`,
		"selfheal_journal_fsync_total",
		"go_goroutines",
	} {
		if !strings.Contains(prom, want) {
			harness.Fatalf("prometheus exposition missing %q; got:\n%s", want, prom)
		}
	}

	// ---- The batch trace, from both listeners. ----
	query := "?route=" + url.QueryEscape("POST /v1/ops:batch")
	var traces struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Spans   []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	traceID := ""
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) && traceID == ""; {
		if err := json.Unmarshal(harness.MustGet(base+"/debug/traces"+query, http.StatusOK), &traces); err != nil {
			harness.Fatalf("decode traces: %v", err)
		}
		for _, tr := range traces.Traces {
			names := make(map[string]bool, len(tr.Spans))
			for _, sp := range tr.Spans {
				names[sp.Name] = true
			}
			if names["fleet.batch"] && names["chip.lock"] && names["journal.commit"] {
				traceID = tr.TraceID
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if traceID == "" {
		harness.Fatalf("no batch trace with fleet.batch+chip.lock+journal.commit spans")
	}
	if body := harness.MustGet(debugBase+"/debug/traces"+query, http.StatusOK); !strings.Contains(string(body), traceID) {
		harness.Fatalf("debug listener does not serve trace %s", traceID)
	}
	if body := harness.MustGet(debugBase+"/debug/pprof/", http.StatusOK); !strings.Contains(string(body), "goroutine") {
		harness.Fatalf("pprof index looks wrong: %s", body)
	}

	// ---- Structured logs: a JSON request line carrying the trace_id. ----
	srv.Stop() // flush on graceful shutdown
	logged := false
	for _, line := range strings.Split(logs.String(), "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			Msg     string `json:"msg"`
			Path    string `json:"path"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			harness.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec.Msg == "request" && rec.Path == "/v1/ops:batch" && rec.TraceID == traceID {
			logged = true
		}
	}
	if !logged {
		harness.Fatalf("no structured request log line with trace_id %s; logs:\n%s", traceID, logs.String())
	}

	fmt.Printf("obs-smoke: PASS (trace %s spans both listeners, logs join by trace_id)\n", traceID)
}
