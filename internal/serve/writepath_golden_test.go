package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selfheal/internal/fleet"
	"selfheal/internal/store"
)

// TestWritePathGolden runs a fixed sequence of single-chip fleet ops, a
// one-item batch, engine writes and manual ticks against a durable
// store, and holds the journal.log it leaves and every response body
// to the golden files in testdata, byte for byte. Each request carries
// a fixed Traceparent and X-Request-ID, so the trace ids fleet records
// carry and the request ids error bodies carry are fixed too. A diff
// means a write now journals or answers differently, which replay of
// existing journals and every client would see: regenerate the golden
// files only for a deliberate format change.
func TestWritePathGolden(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open[*fleet.ChipEntry](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Store:         st,
		EngineEnabled: true,
		EngineEpoch:   -1,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		method, path, body string
		status             int
	}{
		{"POST", "/v1/chips", `{"id":"b0","seed":7}`, http.StatusCreated},
		{"POST", "/v1/chips", `{"id":"m0","seed":9,"kind":"monitored"}`, http.StatusCreated},
		{"POST", "/v1/chips/b0/stress", `{"temp_c":110,"vdd":1.2,"ac":true,"hours":4,"sample_hours":2}`, http.StatusOK},
		{"POST", "/v1/chips/b0/rejuvenate", `{"temp_c":110,"vdd":-0.3,"ac":true,"hours":2,"sample_hours":1}`, http.StatusOK},
		{"GET", "/v1/chips/b0/measure", "", http.StatusOK},
		{"GET", "/v1/chips/b0/odometer", "", http.StatusConflict},
		{"POST", "/v1/chips/m0/stress", `{"temp_c":85,"vdd":1.2,"hours":6}`, http.StatusOK},
		{"POST", "/v1/chips/m0/rejuvenate", `{"temp_c":110,"vdd":-0.3,"hours":1}`, http.StatusOK},
		{"GET", "/v1/chips/m0/odometer", "", http.StatusOK},
		{"GET", "/v1/chips/m0/measure", "", http.StatusConflict},
		{"POST", "/v1/chips/ghost/stress", `{"temp_c":85,"vdd":1.2,"hours":1}`, http.StatusNotFound},
		{"POST", "/v1/chips/b0/stress", `{"temp_c":85,"vdd":1.2,"hours":1,"bogus":1}`, http.StatusBadRequest},
		{"POST", "/v1/ops:batch", `{"ops":[{"op":"stress","id":"b0","temp_c":100,"vdd":1.1,"ac":true,"hours":1,"sample_hours":1}]}`, http.StatusOK},
		{"POST", "/v1/ops:batch", `{"ops":[{"op":"heat","id":"b0"}]}`, http.StatusOK},
		{"POST", "/v1/engine/chips:batch", `{"chips":[{"id":"e0","temp_c":105,"vdd":1.3,"duty":0.75},` +
			`{"id":"e1","phase":"sleep","temp_c":45,"vdd":-0.3,"duty":1,` +
			`"schedule":{"stress_epochs":2,"sleep_epochs":3,"sleep_temp_c":40,"sleep_vdd":-0.25}},` +
			`{"id":"e0","temp_c":80,"vdd":1.2,"duty":1}]}`, http.StatusOK},
		{"POST", "/v1/engine/tick", `{"epochs":3}`, http.StatusOK},
		{"POST", "/v1/engine/chips/e0/condition", `{"phase":"sleep","temp_c":110,"vdd":-0.3,"duty":1}`, http.StatusOK},
		{"POST", "/v1/engine/chips/e1/schedule", `{"stress_epochs":1,"sleep_epochs":4,"sleep_temp_c":110,"sleep_vdd":-0.3}`, http.StatusOK},
		{"POST", "/v1/engine/chips/b0/condition", `{"temp_c":95,"vdd":1.25,"duty":0.5}`, http.StatusOK},
		{"POST", "/v1/engine/tick", `{"epochs":2}`, http.StatusOK},
		{"POST", "/v1/engine/chips/e1/schedule", `{"stress_epochs":0,"sleep_epochs":0}`, http.StatusOK},
		{"DELETE", "/v1/engine/chips/e1", "", http.StatusOK},
		{"DELETE", "/v1/engine/chips/m0", "", http.StatusBadRequest},
		{"DELETE", "/v1/chips/m0", "", http.StatusOK},
		{"POST", "/v1/engine/tick", "", http.StatusOK},
		{"GET", "/v1/engine/chips/e0", "", http.StatusOK},
		{"GET", "/v1/engine/chips/b0", "", http.StatusOK},
	}
	var bodies bytes.Buffer
	for i, step := range steps {
		var rd io.Reader
		if step.body != "" {
			rd = strings.NewReader(step.body)
		}
		req := httptest.NewRequest(step.method, step.path, rd)
		req.Header.Set("Traceparent", fmt.Sprintf("00-%032x-%016x-01", i+1, i+1))
		req.Header.Set("X-Request-ID", fmt.Sprintf("step-%02d", i))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != step.status {
			t.Fatalf("step %d %s %s: status %d, want %d; body %s", i, step.method, step.path, rec.Code, step.status, rec.Body)
		}
		fmt.Fprintf(&bodies, "%s %s %d\n%s", step.method, step.path, rec.Code, rec.Body)
	}
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "testdata/writepath.journal", journal)
	compareGolden(t, "testdata/writepath.bodies", bodies.Bytes())
}

// compareGolden fails at the first line where got differs from the
// golden file.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}
