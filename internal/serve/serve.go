package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"selfheal/internal/engine"
	"selfheal/internal/faults"
	"selfheal/internal/fleet"
	"selfheal/internal/fpga"
	"selfheal/internal/guard"
	"selfheal/internal/obs"
	"selfheal/internal/repl"
	"selfheal/internal/rng"
	"selfheal/internal/store"
)

// Config tunes the service; zero fields take the defaults below.
type Config struct {
	// Addr is the listen address (default ":8040").
	Addr string
	// CacheSize bounds the prediction memo cache (default 256 results).
	CacheSize int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// ShutdownGrace is how long in-flight requests get to finish after
	// SIGINT/SIGTERM before their contexts are cancelled (default 10 s).
	ShutdownGrace time.Duration
	// Logger receives structured request logs (default slog.Default()).
	Logger *slog.Logger

	// Store is the fleet's backing chip table (default: an ephemeral
	// lock-sharded in-memory store). Pass a journal-backed store from
	// store.Open to make the fleet durable: every successful
	// create/stress/rejuvenate/delete is committed before the response,
	// and New replays the store's history to reconstruct the fleet's
	// exact aged state.
	Store fleet.Store
	// BatchWorkers bounds the worker pool behind the :batch routes
	// (default GOMAXPROCS).
	BatchWorkers int
	// Faults, when set and enabled, injects latency, errors and panics
	// into the /v1 routes for chaos testing (never into /healthz or
	// /metrics, which stay observable while the fleet misbehaves).
	Faults *faults.Injector
	// MaxInFlight bounds concurrently-executing /v1 requests; excess
	// load is shed with 429 + Retry-After (default 1024).
	MaxInFlight int
	// RetryAfter is the hint sent with a 429, rounded up to whole
	// seconds on the wire (default 1 s).
	RetryAfter time.Duration
	// OpTimeout bounds registry and sensor routes (default 30 s).
	OpTimeout time.Duration
	// PredictTimeout bounds the /v1/predict routes, whose simulations
	// can legitimately run much longer (default 2 min).
	PredictTimeout time.Duration
	// ProbeInterval is the first recovery-probe delay after the journal
	// trips the service into degraded read-only mode (default 100 ms);
	// subsequent probes back off exponentially to ProbeMaxInterval
	// (default 5 s).
	ProbeInterval    time.Duration
	ProbeMaxInterval time.Duration
	// TraceBuffer is how many completed request traces the in-memory
	// ring retains for GET /debug/traces (default 256).
	TraceBuffer int
	// TelemetryEpochs is the per-series ring capacity of the telemetry
	// TSDB — how many epochs of per-epoch fleet aggregates GET
	// /v1/telemetry can serve (default 512).
	TelemetryEpochs int

	// EngineEnabled turns on the discrete-event fleet aging engine: a
	// single simulation clock that advances every registered chip one
	// epoch per tick through the vectorized TD batch path, with
	// wait-free snapshot reads under /v1/engine. Fleet chips are
	// mirrored into the engine automatically.
	EngineEnabled bool
	// EngineEpoch is the wall-clock tick period (default 1 s). Negative
	// disables the background ticker — epochs then only advance through
	// explicit Engine.Tick calls (tests, benchmarks).
	EngineEpoch time.Duration
	// EngineEpochHours is how many simulated hours one epoch covers
	// (default 0.5).
	EngineEpochHours float64
	// EngineWorkers bounds the engine's tick worker pool (default
	// GOMAXPROCS).
	EngineWorkers int
	// MetricsChipLimit caps the per-chip series in the Prometheus
	// exposition: when the fleet outgrows it, only the top chips by
	// aging plus whole-fleet aggregates are emitted (default 50). The
	// JSON /metrics body is never truncated.
	MetricsChipLimit int

	// GuardEnabled turns on the blue team (requires EngineEnabled): a
	// per-epoch aging-rate monitor over the engine's snapshots that
	// quarantines outlier chips, remaps their logic onto spare fabric,
	// and schedules accelerated rejuvenation until the wearout excess
	// is recovered. Exposed under /v1/guard.
	GuardEnabled bool
	// GuardSpec tunes the guard in the guard.Parse grammar, e.g.
	// "sigma=4,streak=2,rejuv_epochs=4"; empty means the defaults.
	GuardSpec string
	// Adversary, when set alongside GuardEnabled, is the red team: its
	// decided attack actions (dc-stress at the worst corner, schedule
	// cancellation, sleep denial) are applied by the guard through the
	// same engine API a real workload would use, gated on the
	// quarantine like any other mutation.
	Adversary *faults.Adversary

	// Cluster, when set, runs this node as one member of a multi-node
	// fleet: chip placement is enforced against the consistent-hash
	// ring (misplaced requests are 307-forwarded to their owner), the
	// ring is exposed under /v1/cluster, and the node's replication
	// counters ride /metrics. Nil means single-node operation.
	Cluster *ClusterConfig
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8040"
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 30 * time.Second
	}
	if c.PredictTimeout == 0 {
		c.PredictTimeout = 2 * time.Minute
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.ProbeMaxInterval <= 0 {
		c.ProbeMaxInterval = 5 * time.Second
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 256
	}
	if c.TelemetryEpochs <= 0 {
		c.TelemetryEpochs = 512
	}
	if c.EngineEpoch == 0 {
		c.EngineEpoch = time.Second
	}
	if c.EngineEpochHours <= 0 {
		c.EngineEpochHours = 0.5
	}
	if c.MetricsChipLimit <= 0 {
		c.MetricsChipLimit = 50
	}
	return c
}

// Server is the transport layer: routing, middleware and wire types
// over the fleet domain service and the prediction cache. All chip
// state lives in the fleet (and its store); the server owns only the
// HTTP concerns — shedding, timeouts, the degraded-mode gate.
type Server struct {
	cfg     Config
	log     *slog.Logger
	fleet   *fleet.Service
	predict *Predictor
	aging   *engine.Engine
	manual  bool // the aging engine's clock is manual (ticks via API only)
	guard   *guard.Guard
	metrics *Metrics
	faults  *faults.Injector
	gate    *gate
	cluster *clusterState
	tracer  *obs.Tracer
	telem   *telemetry
	sem     chan struct{}
	handler http.Handler

	hookMu  sync.Mutex     // serializes onEpoch; taken before every lock the hooks take
	hooked  uint64         // newest epoch onEpoch ran for
	reducer engine.Reducer // onEpoch's scratch, reused across epochs
}

// New assembles a server from the configuration. When a durable store
// is configured its history is replayed first: every simulation is
// deterministic per seed, so re-running the persisted operations lands
// every chip on its exact pre-shutdown aged state (including the usage
// accounting under /metrics).
func New(cfg Config) (_ *Server, err error) {
	cfg = cfg.withDefaults()
	predict, err := NewPredictor(cfg.CacheSize)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		// Re-wrap the configured logger so every context-aware log line
		// carries the trace_id of the request that emitted it (a no-op
		// for handlers already wrapped, e.g. by cmd/selfheal-serve).
		log:     slog.New(obs.WithTraceIDs(cfg.Logger.Handler())),
		predict: predict,
		metrics: NewMetrics(),
		faults:  cfg.Faults,
		tracer:  obs.NewTracer(cfg.TraceBuffer),
		sem:     make(chan struct{}, cfg.MaxInFlight),
	}
	// A failed commit during startup (the engine's fleet sync) may have
	// started the gate's probe; a failed New stops it with the engine.
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	st := cfg.Store
	if st == nil {
		st = store.NewMem[*fleet.ChipEntry]()
	}
	if st.Durable() {
		s.gate = newGate(s.log, st.Probe, cfg.ProbeInterval, cfg.ProbeMaxInterval)
		st = gatedStore{Store: st, gate: s.gate}
	}
	if s.fleet, err = fleet.NewService(st, fleet.WithBatchWorkers(cfg.BatchWorkers)); err != nil {
		return nil, err
	}
	if n := s.fleet.ReplayedRecords(); n > 0 {
		s.log.Info("store history replayed", "records", n, "chips", s.fleet.Len())
	}
	if s.cluster, err = newClusterState(cfg.Cluster); err != nil {
		return nil, err
	}
	if s.cluster != nil {
		s.log.Info("cluster mode", "node", s.cluster.nodeID,
			"peers", len(cfg.Cluster.Peers), "vnodes", s.cluster.vnodes)
	}
	// Every trace and span view carries the node id, so /debug/traces
	// output from different nodes stitches into one timeline.
	s.tracer.SetNode(s.nodeID())
	// The epoch-lag budget follows the engine's tick interval: an epoch
	// starting more than two intervals late is unambiguously behind.
	lagBudget := 2 * cfg.EngineEpoch.Seconds()
	s.telem = newTelemetry(cfg.TelemetryEpochs, newSLOMonitor(sloConfig{LagBudget: lagBudget}))
	var guardCfg guard.Config
	if cfg.GuardEnabled {
		if !cfg.EngineEnabled {
			return nil, fmt.Errorf("serve: the guard requires the aging engine; enable it too")
		}
		if guardCfg, err = guard.Parse(cfg.GuardSpec); err != nil {
			return nil, err
		}
	}
	if cfg.EngineEnabled {
		interval := cfg.EngineEpoch
		if interval < 0 {
			interval = 0 // manual ticks only
			s.manual = true
		}
		ecfg := engine.Config{
			EpochHours: cfg.EngineEpochHours,
			Interval:   interval,
			Workers:    cfg.EngineWorkers,
			Tracer:     s.tracer,
		}
		// The hook reads s.aging and s.guard, wired below before the
		// wall-clock ticker starts (Start, last in New).
		ecfg.OnEpoch = s.onEpoch
		if s.aging, err = engine.New(st, ecfg); err != nil {
			return nil, err
		}
		if err := s.syncEngineFleet(); err != nil {
			return nil, err
		}
		est := s.aging.Stats()
		s.log.Info("fleet aging engine started",
			"chips", est.Chips, "epoch", est.Epoch,
			"epoch_hours", cfg.EngineEpochHours, "interval", interval)
		if cfg.GuardEnabled {
			// The spare fabric quarantined chips remap onto: one
			// dedicated FPGA-model chip owned by the guard.
			spare, err := fpga.NewChip("guard-spare", fpga.DefaultParams(), rng.New(1))
			if err != nil {
				return nil, err
			}
			if s.guard, err = guard.New(guard.Deps{
				Engine:    s.aging,
				Fleet:     s.fleet,
				Adversary: cfg.Adversary,
				Spare:     spare,
				Tracer:    s.tracer,
				Log:       s.log,
			}, guardCfg); err != nil {
				return nil, err
			}
			s.log.Info("guard started", "spec", guardCfg.String(),
				"adversary", cfg.Adversary != nil)
		}
	}
	s.handler = s.routes()
	if s.aging != nil {
		s.aging.Start()
	}
	return s, nil
}

// onEpoch is the engine's per-epoch hook: the epoch's fleet is reduced
// once and both consumers read that one reduction. The guard runs first
// (a nil guard is inert) — the telemetry recorder then sees the epoch's
// quarantine decisions. Racing manual ticks call it concurrently, so
// calls run one at a time and an epoch no newer than the last one
// hooked is dropped: the guard and the TSDB see epochs in order.
func (s *Server) onEpoch(epoch uint64, snap, prev *engine.Snapshot) {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	if epoch <= s.hooked {
		return
	}
	s.hooked = epoch
	r := s.reducer.Reduce(snap, prev)
	s.guard.OnEpoch(epoch, r)
	var replStats func() *repl.Stats
	if s.cfg.Cluster != nil {
		replStats = s.cfg.Cluster.ReplStats
	}
	mut, errs := s.metrics.mutationCounts()
	s.telem.record(epoch, r, s.aging, s.guard, replStats, mut, errs)
}

// Fleet returns the domain service (exported for tests and for
// embedding the service into a larger process).
func (s *Server) Fleet() *fleet.Service { return s.fleet }

// Handler returns the fully-wired HTTP handler (exported for httptest).
func (s *Server) Handler() http.Handler { return s.handler }

// Close stops the degraded-mode supervisor's background probe and the
// fleet aging engine (flushing its pending epoch window). It does not
// close the store — the caller owns that. Safe on any server,
// including one that never degraded.
func (s *Server) Close() {
	s.gate.close()
	if s.aging != nil {
		if err := s.aging.Close(); err != nil {
			s.log.Warn("engine close: final epoch flush failed", "err", err)
		}
	}
}

// Predictor returns the prediction cache (exported for tests and for
// embedding the service into a larger process).
func (s *Server) Predictor() *Predictor { return s.predict }

// Tracer returns the request-trace ring (exported for tests and for
// mounting the debug endpoints on a separate listener).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// mutatingRoutes are the patterns that commit an operation to the
// store and are therefore suspended in degraded read-only mode. The
// sensor reads are here too: measuring ages the die and consumes noise
// draws, so it is committed — and an uncommittable measure would
// silently fork the replayed state from the live one. The pure reads
// (list, predict, metrics, health) stay up throughout an episode.
var mutatingRoutes = map[string]bool{
	"POST /v1/chips":                 true,
	"POST /v1/chips:batch":           true,
	"DELETE /v1/chips/{id}":          true,
	"POST /v1/chips/{id}/stress":     true,
	"POST /v1/chips/{id}/rejuvenate": true,
	"GET /v1/chips/{id}/measure":     true,
	"GET /v1/chips/{id}/odometer":    true,
	"POST /v1/ops:batch":             true,
	// Engine mutations commit through the same journal, so they are
	// suspended in degraded mode too; engine reads (status, chip views)
	// are snapshot lookups and stay up.
	"POST /v1/engine/chips:batch":          true,
	"DELETE /v1/engine/chips/{id}":         true,
	"POST /v1/engine/chips/{id}/condition": true,
	"POST /v1/engine/chips/{id}/schedule":  true,
}

// routes assembles the mux. Each route runs the hardened-edge stack,
// outermost first:
//
//	request ID → metrics/log → panic recovery → per-route timeout →
//	load shedding → write gate (mutating routes) → fault injection →
//	body limit → handler
//
// The shedder sits *inside* the timeout so its semaphore slot is
// acquired and released on the handler goroutine: a request that times
// out keeps holding its slot until the straggling handler actually
// returns, so the count of running handlers never exceeds MaxInFlight.
//
// /healthz, /readyz and /metrics skip shedding and fault injection:
// during an overload or a chaos run they are exactly the routes that
// must keep answering.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /healthz":                         s.handleHealthz,
		"GET /readyz":                          s.handleReadyz,
		"GET /metrics":                         s.handleMetrics,
		"POST /v1/chips":                       s.handleCreateChip,
		"POST /v1/chips:batch":                 s.handleBatchCreate,
		"GET /v1/chips":                        s.handleListChips,
		"DELETE /v1/chips/{id}":                s.handleDeleteChip,
		"POST /v1/chips/{id}/stress":           s.handleChipOp(fleet.BatchOpStress),
		"POST /v1/chips/{id}/rejuvenate":       s.handleChipOp(fleet.BatchOpRejuvenate),
		"GET /v1/chips/{id}/measure":           s.handleChipOp(fleet.BatchOpMeasure),
		"GET /v1/chips/{id}/odometer":          s.handleChipOp(fleet.BatchOpOdometer),
		"POST /v1/ops:batch":                   s.handleBatchOps,
		"POST /v1/predict/shift":               s.handlePredictShift,
		"POST /v1/predict/schedules":           s.handlePredictSchedules,
		"POST /v1/predict/multicore":           s.handlePredictMulticore,
		"GET /v1/engine":                       s.handleEngineStatus,
		"GET /v1/engine/chips/{id}":            s.handleEngineChip,
		"POST /v1/engine/chips:batch":          s.handleEngineRegister,
		"DELETE /v1/engine/chips/{id}":         s.handleEngineDelete,
		"POST /v1/engine/chips/{id}/condition": s.handleEngineCondition,
		"POST /v1/engine/chips/{id}/schedule":  s.handleEngineSchedule,
		"POST /v1/engine/tick":                 s.handleEngineTick,
		"GET /v1/guard":                        s.handleGuardStatus,
		"GET /v1/guard/alerts":                 s.handleGuardAlerts,
		"POST /v1/guard/config":                s.handleGuardConfig,
		"GET /v1/cluster":                      s.handleCluster,
		"POST /v1/cluster/peers":               s.handleClusterPeers,
		"POST /v1/cluster/promote":             s.handleClusterPromote,
		"GET /v1/telemetry":                    s.handleTelemetry,
		"GET /v1/fleet/telemetry":              s.handleFleetTelemetry,
		"GET /debug/traces":                    s.handleTraces,
	} {
		// The cluster control plane and the telemetry read paths skip
		// shedding, fault injection and the write gate: during a
		// failover or an overload — exactly when these routes are
		// needed — the node may be degraded or under chaos, and
		// repointing a peer or reading the fleet's vitals must still
		// work.
		isControl := strings.Contains(pattern, "/v1/cluster") ||
			strings.Contains(pattern, "/v1/telemetry") ||
			strings.Contains(pattern, "/v1/fleet/")
		limited := strings.Contains(pattern, "/v1/") && !isControl
		timeout := s.cfg.OpTimeout
		// Predictions can legitimately simulate for minutes, and a batch
		// is up to MaxBatchItems chip operations; both get the long
		// timeout.
		if strings.Contains(pattern, "/v1/predict/") || strings.Contains(pattern, ":batch") {
			timeout = s.cfg.PredictTimeout
		}
		var hh http.Handler = s.withBodyLimit(h)
		if limited {
			hh = s.withFaults(hh)
			if mutatingRoutes[pattern] {
				hh = s.withWriteGate(hh)
			}
			// Ownership wraps outside the write gate: a degraded node
			// still 307-forwards chips it does not own — only its own
			// shard is read-only.
			if strings.Contains(pattern, "/v1/chips/{id}") {
				hh = s.withOwnership(hh)
			}
			hh = s.withLimit(hh)
		}
		hh = s.withTimeout(timeout, hh)
		hh = s.withRecover(hh)
		hh = s.instrument(pattern, hh)
		hh = s.withRequestID(hh)
		mux.Handle(pattern, hh)
	}
	return mux
}

// statusWriter captures the response status for metrics and logs, and
// whether anything was written at all (so panic recovery knows if a
// clean 500 is still possible).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the metrics counters (labelled by
// route *pattern*, so cardinality stays bounded), structured request
// logging, and — on the /v1/ routes — a root trace span. An inbound
// Traceparent header (from the client, or from the node that
// 307-forwarded here) is adopted, so one logical request files under
// one trace id on every node it touches; without the header a fresh id
// is minted. The id is echoed in X-Trace-ID either way. Health and
// metrics scrapes stay out of the trace ring so a tight scrape loop
// cannot evict the request traces the ring exists to keep.
func (s *Server) instrument(pattern string, h http.Handler) http.Handler {
	traced := strings.Contains(pattern, "/v1/")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var root *obs.Span
		if traced {
			var ctx context.Context
			remoteID, _ := obs.ParseTraceContext(r.Header.Get(obs.TraceContextHeader))
			ctx, root = s.tracer.StartRemote(r.Context(), pattern, remoteID)
			root.Annotate(
				obs.String("method", r.Method),
				obs.String("path", r.URL.Path),
				obs.String("request_id", RequestIDFrom(r.Context())),
			)
			w.Header().Set("X-Trace-ID", obs.TraceIDFrom(ctx))
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		root.SetStatus(sw.status)
		root.End()
		s.metrics.Observe(pattern, sw.status, elapsed)
		s.log.InfoContext(r.Context(), "request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"elapsed", elapsed,
			"remote", r.RemoteAddr,
			"request_id", RequestIDFrom(r.Context()),
		)
	})
}

// Run listens on the configured address and serves until ctx is
// cancelled; see RunListener.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.RunListener(ctx, ln)
}

// RunListener serves on ln until ctx is cancelled (typically by
// SIGINT/SIGTERM via signal.NotifyContext), then shuts down
// gracefully: new connections stop, in-flight requests get
// ShutdownGrace to finish, and if any are still running after that
// their contexts are cancelled — which aborts long multicore
// simulations at the next slot boundary.
func (s *Server) RunListener(ctx context.Context, ln net.Listener) error {
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	var fresh freshConns
	srv := &http.Server{
		Handler:           s.handler,
		BaseContext:       func(net.Listener) context.Context { return base },
		ReadHeaderTimeout: 10 * time.Second,
		ConnState:         fresh.track,
	}
	srv.RegisterOnShutdown(fresh.closeAll)
	defer s.Close()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.log.Info("fleet aging service listening", "addr", ln.Addr().String())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.Info("shutting down", "grace", s.cfg.ShutdownGrace)
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		s.log.Warn("grace period expired; cancelling in-flight simulations", "err", err)
		cancelBase()
		if err := srv.Close(); err != nil {
			return err
		}
	}
	<-errc // drain http.ErrServerClosed from the serve goroutine
	s.log.Info("shutdown complete")
	return nil
}

// freshConns tracks the server's connections that have not yet read a
// request. http.Server.Shutdown closes idle keep-alive connections
// but counts one still in StateNew as busy until it is 5 s old, so a
// client holding a dialled-but-unused connection would otherwise run
// any shorter grace period out and cancel in-flight work. Once
// Shutdown has closed the listeners, closeAll closes them like idle
// ones, and any connection that reaches StateNew later.
type freshConns struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// track is the server's ConnState hook.
func (f *freshConns) track(c net.Conn, st http.ConnState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(f.conns, c)
	case f.closed:
		c.Close()
	default:
		if f.conns == nil {
			f.conns = make(map[net.Conn]struct{})
		}
		f.conns[c] = struct{}{}
	}
}

// closeAll closes every connection still in StateNew; Shutdown calls
// it after closing the listeners.
func (f *freshConns) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
	clear(f.conns)
}
