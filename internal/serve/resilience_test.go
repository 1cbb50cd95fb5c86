// Resilience acceptance tests: durability across a hard stop, chaos
// traffic under fault injection, and Run's shutdown contract. These
// live in an external test package so they can drive the server
// through the public selfheal/client (which itself imports serve).
package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"selfheal/client"
	"selfheal/internal/faults"
	"selfheal/internal/fleet"
	"selfheal/internal/serve"
	"selfheal/internal/store"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newDurableServer(t *testing.T, dir string, inj *faults.Injector) (fleet.Store, *httptest.Server) {
	t.Helper()
	opts := store.JournalOptions{}
	if inj != nil {
		opts.Hook = inj.JournalHook()
	}
	st, _, err := store.Open[*fleet.ChipEntry](dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Logger: quietLogger(), Store: st, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return st, ts
}

// TestDurabilityAcrossHardStop is the ISSUE acceptance scenario:
// stress and rejuvenate chips, hard-stop the server (no graceful
// shutdown, journal never closed), restart from the same -data dir,
// and the measurements must be bit-identical — deterministic replay
// reconstructs both the chip state and the RNG stream. A torn final
// journal record (crash mid-write) must be tolerated.
func TestDurabilityAcrossHardStop(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	_, ts1 := newDurableServer(t, dir, nil) // store deliberately not closed: hard stop
	cl1 := client.New(ts1.URL)
	if _, err := cl1.CreateChip(ctx, client.CreateChipRequest{ID: "c0", Seed: 7, Kind: "bench"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl1.CreateChip(ctx, client.CreateChipRequest{ID: "m0", Seed: 3, Kind: "monitored"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl1.Stress(ctx, "c0", client.PhaseRequest{TempC: 110, Vdd: 1.32, AC: true, Hours: 24, SampleHours: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl1.Rejuvenate(ctx, "c0", client.PhaseRequest{TempC: 110, Vdd: -0.3, Hours: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl1.Stress(ctx, "m0", client.PhaseRequest{TempC: 85, Vdd: 1.2, Hours: 48}); err != nil {
		t.Fatal(err)
	}
	wantReading, err := cl1.Measure(ctx, "c0")
	if err != nil {
		t.Fatal(err)
	}
	wantOdo, err := cl1.Odometer(ctx, "m0")
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close() // hard stop: no journal.Close, no graceful drain

	// A crash can tear the record being written; replay must shrug it off.
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"op":"stress","id":"c0","temp_`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, ts2 := newDurableServer(t, dir, nil)
	defer st2.Close()
	cl2 := client.New(ts2.URL)
	gotReading, err := cl2.Measure(ctx, "c0")
	if err != nil {
		t.Fatal(err)
	}
	if gotReading != wantReading {
		t.Fatalf("post-restart measure = %+v, want pre-crash %+v", gotReading, wantReading)
	}
	gotOdo, err := cl2.Odometer(ctx, "m0")
	if err != nil {
		t.Fatal(err)
	}
	if gotOdo != wantOdo {
		t.Fatalf("post-restart odometer = %+v, want pre-crash %+v", gotOdo, wantOdo)
	}
	// And the restarted fleet keeps journaling: another phase + restart.
	if _, err := cl2.Stress(ctx, "c0", client.PhaseRequest{TempC: 85, Vdd: 1.2, Hours: 2}); err != nil {
		t.Fatal(err)
	}
	want2, err := cl2.Measure(ctx, "c0")
	if err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	st3, ts3 := newDurableServer(t, dir, nil)
	defer st3.Close()
	got2, err := client.New(ts3.URL).Measure(ctx, "c0")
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want2 {
		t.Fatalf("second restart measure = %+v, want %+v", got2, want2)
	}
}

// TestChaosTrafficStaysWellFormed floods a small-capacity server with
// concurrent traffic while the injector throws latency, errors, panics
// and torn journal writes. Every response on the wire must be
// well-formed JSON with a sane status, and the retrying client must
// eventually complete every idempotent request.
func TestChaosTrafficStaysWellFormed(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	inj, err := faults.New(faults.Config{
		Seed:     1234,
		LatencyP: 0.2, Latency: 2 * time.Millisecond,
		ErrorP: 0.15, PanicP: 0.05, PartialP: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open[*fleet.ChipEntry](dir, store.JournalOptions{Hook: inj.JournalHook()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := serve.New(serve.Config{
		Logger:      quietLogger(),
		Store:       st,
		Faults:      inj,
		MaxInFlight: 4,
		RetryAfter:  time.Second,
		// Journal faults now trip degraded read-only mode; with fast
		// probes (the disk itself is healthy here) each episode ends
		// within a couple of milliseconds, well inside the retrying
		// client's budget.
		ProbeInterval:    2 * time.Millisecond,
		ProbeMaxInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed the fleet with injection off so setup is deterministic.
	inj.SetEnabled(false)
	cl := client.New(ts.URL)
	chips := []string{"c0", "c1", "c2", "c3"}
	for i, id := range chips {
		if _, err := cl.CreateChip(ctx, client.CreateChipRequest{ID: id, Seed: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Stress(ctx, id, client.PhaseRequest{TempC: 110, Vdd: 1.32, Hours: 10}); err != nil {
			t.Fatal(err)
		}
	}
	inj.SetEnabled(true)

	const (
		workers = 12
		opsEach = 15
	)
	// Journal faults trip whole degraded episodes now, which correlates
	// failures across a single call's retries; the budget below spans
	// many episodes so an idempotent call still always lands.
	retrying := client.New(ts.URL,
		client.WithMaxAttempts(25),
		client.WithBackoff(time.Millisecond, 25*time.Millisecond),
		client.WithJitterSeed(9),
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	fail := func(s string) { mu.Lock(); failures = append(failures, s); mu.Unlock() }
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				opCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
				var err error
				switch i % 4 {
				case 0:
					_, err = retrying.Measure(opCtx, chips[g%len(chips)])
				case 1:
					_, err = retrying.ListChips(opCtx)
				case 2:
					_, err = retrying.PredictShift(opCtx, client.ShiftRequest{
						TempC: 100 + float64(g), Vdd: 1.3, Duty: 0.5, StressHours: 10,
					})
				case 3:
					_, err = retrying.Metrics(opCtx)
				}
				cancel()
				if err != nil {
					fail(err.Error())
				}
			}
		}(g)
	}
	// Raw probes in parallel: every wire response — including mutating
	// routes hitting injected journal faults — must be parseable JSON
	// with a status from the documented set, never a dropped connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc := ts.Client()
		for i := 0; i < 60; i++ {
			id := chips[i%len(chips)]
			resp, err := hc.Post(ts.URL+"/v1/chips/"+id+"/stress", "application/json",
				strings.NewReader(`{"temp_c":85,"vdd":1.2,"hours":0.5}`))
			if err != nil {
				fail("probe transport error: " + err.Error())
				continue
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				fail("probe body read: " + err.Error())
				continue
			}
			switch resp.StatusCode {
			case http.StatusOK, http.StatusTooManyRequests,
				http.StatusInternalServerError, http.StatusServiceUnavailable:
			default:
				fail("probe status " + resp.Status + ": " + string(raw))
				continue
			}
			if !json.Valid(raw) {
				fail("probe returned invalid JSON: " + string(raw))
			}
		}
	}()
	wg.Wait()
	if len(failures) > 0 {
		max := len(failures)
		if max > 5 {
			max = 5
		}
		t.Fatalf("%d chaos failures, first %d: %v", len(failures), max, failures[:max])
	}

	inj.SetEnabled(false)
	snap, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.PanicsRecovered < 1 {
		t.Errorf("panics_recovered = %d, want ≥ 1 under panic_p=0.05", snap.PanicsRecovered)
	}
	if snap.Faults == nil || snap.Faults.Errors == 0 {
		t.Errorf("faults metrics = %+v, want injected errors counted", snap.Faults)
	}
	if snap.Journal == nil || snap.Journal.Appends == 0 {
		t.Errorf("journal metrics = %+v, want appends counted", snap.Journal)
	}

	// Whatever the chaos did, the journal it left behind must replay.
	st2, _, err := store.Open[*fleet.ChipEntry](dir, store.JournalOptions{})
	if err != nil {
		t.Fatalf("journal does not reopen after chaos: %v", err)
	}
	defer st2.Close()
	s2, err := serve.New(serve.Config{Logger: quietLogger(), Store: st2})
	if err != nil {
		t.Fatalf("replay after chaos: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	survivors, err := client.New(ts2.URL).ListChips(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(survivors) != len(chips) {
		t.Fatalf("replayed fleet has %d chips, want %d", len(survivors), len(chips))
	}
}

// pickSeed finds an injector seed whose first latency draw lands in
// [lo, hi], so shutdown tests get a deterministic in-flight duration.
func pickSeed(t *testing.T, ceiling time.Duration, lo, hi time.Duration) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 500; seed++ {
		in, err := faults.New(faults.Config{Seed: seed, LatencyP: 1, Latency: ceiling})
		if err != nil {
			t.Fatal(err)
		}
		if d := in.Request(); d.Latency >= lo && d.Latency <= hi {
			return seed
		}
	}
	t.Fatal("no seed yields a first latency draw in range")
	return 0
}

func startRunListener(t *testing.T, cfg serve.Config) (net.Addr, context.CancelFunc, chan error) {
	t.Helper()
	cfg.Logger = quietLogger()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunListener(ctx, ln) }()
	return ln.Addr(), cancel, done
}

// TestRunDrainsInFlightWithinGrace: cancelling Run's context while a
// request is executing must let that request finish (grace is ample)
// and then return cleanly.
func TestRunDrainsInFlightWithinGrace(t *testing.T) {
	seed := pickSeed(t, 500*time.Millisecond, 200*time.Millisecond, 450*time.Millisecond)
	inj, err := faults.New(faults.Config{Seed: seed, LatencyP: 1, Latency: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr, cancel, done := startRunListener(t, serve.Config{Faults: inj, ShutdownGrace: 10 * time.Second})

	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr.String() + "/v1/chips")
		if err != nil {
			resc <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resc <- result{status: resp.StatusCode}
	}()
	time.Sleep(100 * time.Millisecond) // request is now sleeping in the injector
	cancel()

	res := <-resc
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("in-flight request during graceful shutdown: status=%d err=%v", res.status, res.err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunListener returned %v after graceful drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunListener did not return after drain")
	}
}

// TestRunForceCancelsAfterGrace: with a request stuck well past the
// grace period, Run must cancel its context and return promptly rather
// than hang on the drain.
func TestRunForceCancelsAfterGrace(t *testing.T) {
	seed := pickSeed(t, 30*time.Second, 10*time.Second, 30*time.Second)
	inj, err := faults.New(faults.Config{Seed: seed, LatencyP: 1, Latency: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr, cancel, done := startRunListener(t, serve.Config{Faults: inj, ShutdownGrace: 100 * time.Millisecond})

	go func() {
		// The probe is expected to die with the connection; ignore it.
		resp, err := http.Get("http://" + addr.String() + "/v1/chips")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond) // request is in flight, sleeping ~10s+
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunListener returned %v after forced cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunListener hung past the grace period")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("forced shutdown took %v, want ≈ grace (100ms)", elapsed)
	}
}

// acceptSignal wraps a listener and reports each accepted connection,
// so a test can wait until the server holds one.
type acceptSignal struct {
	net.Listener
	accepted chan struct{}
}

func (l acceptSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// lockedLog is a log sink safe for the server's goroutines.
type lockedLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestRunClosesUnusedConnectionOnShutdown: a client holding a dialled
// connection that never sends a request must not hold a shutdown for
// its grace period. http.Server counts such a connection busy until it
// is 5 s old, which used to run a 2 s grace out and take the
// grace-expired path that cancels in-flight work.
func TestRunClosesUnusedConnectionOnShutdown(t *testing.T) {
	var logs lockedLog
	s, err := serve.New(serve.Config{
		ShutdownGrace: 2 * time.Second,
		Logger:        slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := acceptSignal{Listener: inner, accepted: make(chan struct{}, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.RunListener(ctx, ln) }()

	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-ln.accepted
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunListener returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunListener did not return")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("shutdown took %v with one unused connection, want well under the 2s grace", elapsed)
	}
	if strings.Contains(logs.String(), "grace period expired") {
		t.Errorf("shutdown took the grace-expired path:\n%s", logs.String())
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("unused connection after shutdown: read error %v, want EOF", err)
	}
}
