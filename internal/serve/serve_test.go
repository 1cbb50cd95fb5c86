package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do issues a request and decodes the JSON response into out (skipped
// when out is nil), failing the test unless the status matches.
func do(t *testing.T, ts *httptest.Server, method, path, body string, wantStatus int, out any) {
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
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var body map[string]string
	do(t, ts, "GET", "/healthz", "", http.StatusOK, &body)
	if body["status"] != "ok" {
		t.Fatalf("healthz body = %v", body)
	}
}

func TestChipLifecycleRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var chip ChipResponse
	do(t, ts, "POST", "/v1/chips", `{"id":"c0","seed":7}`, http.StatusCreated, &chip)
	if chip.ID != "c0" || chip.Kind != KindBench || chip.FreshDelayNS <= 0 {
		t.Fatalf("create response: %+v", chip)
	}

	var fresh ReadingResponse
	do(t, ts, "GET", "/v1/chips/c0/measure", "", http.StatusOK, &fresh)

	var phase PhaseResponse
	do(t, ts, "POST", "/v1/chips/c0/stress",
		`{"temp_c":110,"vdd":1.2,"hours":24,"sample_hours":12}`, http.StatusOK, &phase)
	if phase.Phase != "stress" || len(phase.Trace) == 0 {
		t.Fatalf("stress response: %+v", phase)
	}

	var stressed ReadingResponse
	do(t, ts, "GET", "/v1/chips/c0/measure", "", http.StatusOK, &stressed)
	if stressed.DegradationPct <= fresh.DegradationPct {
		t.Fatalf("stress did not age the chip: fresh %.4f%%, stressed %.4f%%",
			fresh.DegradationPct, stressed.DegradationPct)
	}

	do(t, ts, "POST", "/v1/chips/c0/rejuvenate",
		`{"temp_c":110,"vdd":-0.3,"hours":6}`, http.StatusOK, &phase)
	var healed ReadingResponse
	do(t, ts, "GET", "/v1/chips/c0/measure", "", http.StatusOK, &healed)
	if healed.DegradationPct >= stressed.DegradationPct {
		t.Fatalf("rejuvenation did not heal the chip: stressed %.4f%%, healed %.4f%%",
			stressed.DegradationPct, healed.DegradationPct)
	}

	var list ChipListResponse
	do(t, ts, "GET", "/v1/chips", "", http.StatusOK, &list)
	if len(list.Chips) != 1 || list.Chips[0].ID != "c0" {
		t.Fatalf("list response: %+v", list)
	}
}

func TestMonitoredChipOdometer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do(t, ts, "POST", "/v1/chips", `{"id":"m0","seed":3,"kind":"monitored"}`, http.StatusCreated, nil)
	do(t, ts, "POST", "/v1/chips/m0/stress", `{"temp_c":110,"vdd":1.2,"hours":48}`, http.StatusOK, nil)
	var odo OdometerResponse
	do(t, ts, "GET", "/v1/chips/m0/odometer", "", http.StatusOK, &odo)
	if odo.DegradationPPM <= 0 {
		t.Fatalf("stressed odometer read %.2f ppm, want > 0", odo.DegradationPPM)
	}
	// Sensor/kind mismatches are conflicts, not validation failures.
	do(t, ts, "GET", "/v1/chips/m0/measure", "", http.StatusConflict, nil)
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do(t, ts, "POST", "/v1/chips", `{"id":"c0","seed":1}`, http.StatusCreated, nil)

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"malformed json", "POST", "/v1/chips", `{"id":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/chips", `{"id":"x","sede":1}`, http.StatusBadRequest},
		{"empty id", "POST", "/v1/chips", `{"id":""}`, http.StatusBadRequest},
		{"bad kind", "POST", "/v1/chips", `{"id":"x","kind":"quantum"}`, http.StatusBadRequest},
		{"duplicate id", "POST", "/v1/chips", `{"id":"c0"}`, http.StatusConflict},
		{"unknown chip stress", "POST", "/v1/chips/ghost/stress", `{"temp_c":85,"vdd":1.2,"hours":1}`, http.StatusNotFound},
		{"unknown chip measure", "GET", "/v1/chips/ghost/measure", "", http.StatusNotFound},
		{"negative hours", "POST", "/v1/chips/c0/stress", `{"temp_c":85,"vdd":1.2,"hours":-4}`, http.StatusBadRequest},
		{"zero rail stress", "POST", "/v1/chips/c0/stress", `{"temp_c":85,"vdd":0,"hours":1}`, http.StatusBadRequest},
		{"positive sleep rail", "POST", "/v1/chips/c0/rejuvenate", `{"temp_c":110,"vdd":1.2,"hours":1}`, http.StatusBadRequest},
		{"shift negative hours", "POST", "/v1/predict/shift", `{"temp_c":110,"vdd":1.2,"duty":1,"stress_hours":-1}`, http.StatusBadRequest},
		{"shift bad duty", "POST", "/v1/predict/shift", `{"temp_c":110,"vdd":1.2,"duty":2,"stress_hours":1}`, http.StatusBadRequest},
		{"schedules no policies", "POST", "/v1/predict/schedules", `{"seed":1,"horizon_days":1,"policies":[]}`, http.StatusBadRequest},
		{"schedules zero alpha", "POST", "/v1/predict/schedules",
			`{"seed":1,"horizon_days":1,"policies":[{"kind":"proactive","alpha":0,"sleep_hours":6,"sleep_temp_c":110,"sleep_vdd":-0.3}]}`,
			http.StatusBadRequest},
		{"schedules unknown kind", "POST", "/v1/predict/schedules",
			`{"seed":1,"horizon_days":1,"policies":[{"kind":"psychic"}]}`, http.StatusBadRequest},
		{"multicore bad scheduler", "POST", "/v1/predict/multicore", `{"scheduler":"chaotic","demand":2,"days":1}`, http.StatusBadRequest},
		{"multicore negative days", "POST", "/v1/predict/multicore", `{"scheduler":"circadian","demand":2,"days":-1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBody ErrorResponse
			do(t, ts, tc.method, tc.path, tc.body, tc.want, &errBody)
			if errBody.Error == "" {
				t.Fatal("error response carries no message")
			}
		})
	}
}

func TestPredictShiftAndRecovery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"temp_c":110,"vdd":1.2,"duty":1,"stress_hours":100,"sleep_temp_c":110,"sleep_vdd":-0.3,"sleep_hours":25}`
	var first ShiftResponse
	do(t, ts, "POST", "/v1/predict/shift", body, http.StatusOK, &first)
	if first.ShiftV <= 0 {
		t.Fatalf("shift = %v, want > 0", first.ShiftV)
	}
	if first.RecoveredFraction == nil || *first.RecoveredFraction <= 0 || *first.RecoveredFraction > 1 {
		t.Fatalf("recovered fraction = %v, want in (0,1]", first.RecoveredFraction)
	}
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	var second ShiftResponse
	do(t, ts, "POST", "/v1/predict/shift", body, http.StatusOK, &second)
	if !second.Cached {
		t.Fatal("identical second request missed the cache")
	}
	if second.ShiftV != first.ShiftV {
		t.Fatalf("cache broke determinism: %v vs %v", second.ShiftV, first.ShiftV)
	}
}

func TestPredictSchedulesTraceTrimming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := `"seed":5,"horizon_days":1,"policies":[{"kind":"none"},{"kind":"proactive","alpha":4,"sleep_hours":6,"sleep_temp_c":110,"sleep_vdd":-0.3}]`
	var plain SchedulesResponse
	do(t, ts, "POST", "/v1/predict/schedules", "{"+base+"}", http.StatusOK, &plain)
	if len(plain.Outcomes) != 2 || plain.Cached {
		t.Fatalf("first schedules response: %+v", plain)
	}
	if len(plain.Outcomes[0].Trace) != 0 {
		t.Fatal("trace included without include_trace")
	}
	// Same parameters with include_trace must hit the same cache entry
	// and still carry the trace.
	var traced SchedulesResponse
	do(t, ts, "POST", "/v1/predict/schedules", "{"+base+`,"include_trace":true}`, http.StatusOK, &traced)
	if !traced.Cached {
		t.Fatal("include_trace variant missed the cache")
	}
	if len(traced.Outcomes[0].Trace) == 0 {
		t.Fatal("cached outcome lost its trace")
	}
	if traced.Outcomes[1].PeakPct != plain.Outcomes[1].PeakPct {
		t.Fatal("cache broke determinism across trace variants")
	}
}

func TestPredictMulticoreCacheDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"scheduler":"circadian","demand":2,"days":0.5}`
	var first, second MulticoreResponse
	do(t, ts, "POST", "/v1/predict/multicore", body, http.StatusOK, &first)
	do(t, ts, "POST", "/v1/predict/multicore", body, http.StatusOK, &second)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	first.Cached, second.Cached = false, false
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached result differs from computed:\n%s\n%s", a, b)
	}

	var snap MetricsSnapshot
	do(t, ts, "GET", "/metrics", "", http.StatusOK, &snap)
	if snap.Cache.Hits < 1 {
		t.Fatalf("metrics cache hits = %d, want ≥ 1", snap.Cache.Hits)
	}
	if snap.Cache.Entries < 1 {
		t.Fatalf("metrics cache entries = %d, want ≥ 1", snap.Cache.Entries)
	}
	route := snap.Requests["POST /v1/predict/multicore"]
	if route.Count != 2 || route.ByStatus["200"] != 2 {
		t.Fatalf("multicore route stats: %+v", route)
	}
}

func TestMulticoreCancellation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Predictor().Multicore(ctx, MulticoreRequest{Scheduler: "circadian", Demand: 2, Days: 365})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("cancelled run: err = %v, want slot-abort error", err)
	}
}

func TestRequestSizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	big := fmt.Sprintf(`{"id":"c0","seed":1,"kind":"%s"}`, strings.Repeat("x", 256))
	do(t, ts, "POST", "/v1/chips", big, http.StatusRequestEntityTooLarge, nil)
}

// TestConcurrentChips hammers two chips from 8 goroutines; run under
// -race it proves the per-chip locking discipline: operations on one
// chip serialize while the two chips progress in parallel.
func TestConcurrentChips(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do(t, ts, "POST", "/v1/chips", `{"id":"a","seed":1}`, http.StatusCreated, nil)
	do(t, ts, "POST", "/v1/chips", `{"id":"b","seed":2,"kind":"monitored"}`, http.StatusCreated, nil)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := "a"
			sensor := "/measure"
			if g%2 == 1 {
				id, sensor = "b", "/odometer"
			}
			for i := 0; i < 3; i++ {
				for _, step := range []struct{ path, body string }{
					{"/stress", `{"temp_c":110,"vdd":1.2,"hours":2}`},
					{"/rejuvenate", `{"temp_c":110,"vdd":-0.3,"hours":1}`},
					{sensor, ""},
				} {
					method, body := "POST", step.body
					if step.body == "" {
						method = "GET"
					}
					req, err := http.NewRequest(method, ts.URL+"/v1/chips/"+id+step.path, strings.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					resp, err := ts.Client().Do(req)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("goroutine %d: %s %s: status %d", g, method, step.path, resp.StatusCode)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var snap MetricsSnapshot
	do(t, ts, "GET", "/metrics", "", http.StatusOK, &snap)
	for _, id := range []string{"a", "b"} {
		usage := snap.Chips[id]
		if usage.StressSeconds <= 0 || usage.HealSeconds <= 0 {
			t.Errorf("chip %s usage not accounted: %+v", id, usage)
		}
	}
}
