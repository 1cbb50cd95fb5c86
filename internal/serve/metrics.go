package serve

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/engine"
	"selfheal/internal/faults"
	"selfheal/internal/fleet"
	"selfheal/internal/guard"
	"selfheal/internal/obs"
)

// latencyBounds are the request-latency histograms' bucket upper
// bounds in seconds; a final implicit +Inf bucket catches the rest.
var latencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// Metrics is the service's expvar-style instrumentation: request and
// status counts per route, latency histograms, and (via snapshots
// taken at read time) cache and per-chip usage numbers. Plain JSON on
// GET /metrics, standard library only.
type Metrics struct {
	start time.Time

	panics          atomic.Uint64 // handler panics recovered into 500s
	shed            atomic.Uint64 // requests rejected 429 by the load shedder
	timeouts        atomic.Uint64 // requests cut off 503 by a route timeout
	degradedRejects atomic.Uint64 // writes rejected 503 by the degraded-mode gate

	mu      sync.Mutex
	routes  map[string]*routeStats
	latency *obs.Histogram // every route's requests
}

type routeStats struct {
	byStatus map[int]uint64
	latency  *obs.Histogram
}

// NewMetrics starts the clock.
func NewMetrics() *Metrics {
	return &Metrics{
		start:   time.Now(),
		routes:  make(map[string]*routeStats),
		latency: obs.NewHistogram(latencyBounds...),
	}
}

// Observe records one served request.
func (m *Metrics) Observe(route string, status int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[route]
	if !ok {
		rs = &routeStats{byStatus: make(map[int]uint64), latency: obs.NewHistogram(latencyBounds...)}
		m.routes[route] = rs
	}
	rs.byStatus[status]++
	rs.latency.Observe(elapsed)
	m.latency.Observe(elapsed)
}

// RecordPanic counts one recovered handler panic.
func (m *Metrics) RecordPanic() { m.panics.Add(1) }

// RecordShed counts one request rejected by the concurrency limiter.
func (m *Metrics) RecordShed() { m.shed.Add(1) }

// RecordTimeout counts one request cut off by its route timeout.
func (m *Metrics) RecordTimeout() { m.timeouts.Add(1) }

// RecordDegradedReject counts one write rejected by the degraded-mode
// gate.
func (m *Metrics) RecordDegradedReject() { m.degradedRejects.Add(1) }

// mutationCounts totals the mutating routes' requests and their 5xx
// failures — the telemetry recorder turns consecutive readings into
// the per-epoch mutation throughput and the availability SLO's inputs.
func (m *Metrics) mutationCounts() (total, errors uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for route, rs := range m.routes {
		if !mutatingRoutes[route] {
			continue
		}
		for status, n := range rs.byStatus {
			total += n
			if status >= 500 {
				errors += n
			}
		}
	}
	return total, errors
}

// RouteSnapshot is one route's counters in a MetricsSnapshot.
type RouteSnapshot struct {
	Count    uint64            `json:"count"`
	ByStatus map[string]uint64 `json:"by_status"`
}

// CacheSnapshot reports the prediction memo cache.
type CacheSnapshot struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// JournalSnapshot reports the durability layer: append volume, the
// fsync latency the fleet pays per mutating operation, and how well
// group commit is amortizing it (SyncBatchMax > 1 means concurrent
// appends shared an fsync).
type JournalSnapshot struct {
	Appends      uint64  `json:"appends"`
	Compactions  uint64  `json:"compactions"`
	Records      int     `json:"records"`
	LastSeq      uint64  `json:"last_seq"`
	FsyncCount   uint64  `json:"fsync_count"`
	FsyncMeanMS  float64 `json:"fsync_mean_ms"`
	FsyncMaxMS   float64 `json:"fsync_max_ms"`
	SyncBatches  uint64  `json:"sync_batches"`
	SyncBatchMax int     `json:"sync_batch_max"`
	CompactError string  `json:"compact_error,omitempty"`
}

// DegradedSnapshot reports the degraded-mode supervisor: whether the
// service currently accepts writes, how many episodes it has entered
// and recovered from, probe volume, and the writes turned away while
// read-only.
type DegradedSnapshot struct {
	WriteReady     bool    `json:"write_ready"`
	Enters         uint64  `json:"enters"`
	Exits          uint64  `json:"exits"`
	Probes         uint64  `json:"probes"`
	WritesRejected uint64  `json:"writes_rejected"`
	Reason         string  `json:"reason,omitempty"`
	SinceSeconds   float64 `json:"since_seconds,omitempty"`
}

// EngineMetrics is the aging-engine section of a MetricsSnapshot: the
// engine's counters, whole-fleet aging aggregates, and the most-aged
// chips (the same top-K list the Prometheus exposition emits instead
// of one series per chip).
type EngineMetrics struct {
	Stats engine.Stats `json:"stats"`
	// OdometerSum is the fleet-wide total of stress epochs endured.
	OdometerSum uint64 `json:"odometer_epochs_sum"`
	// VthShiftSum is the fleet-wide total threshold shift in volts —
	// divide by Stats.Chips for the fleet mean.
	VthShiftSum float64           `json:"vth_shift_v_sum"`
	Top         []engine.ChipView `json:"top_by_odometer,omitempty"`
}

// GuardMetrics is the guard section of a MetricsSnapshot: the blue
// team's counters plus the current quarantine roster (ids, sorted).
type GuardMetrics struct {
	guard.Metrics
	Quarantined []string `json:"quarantined,omitempty"`
}

// TelemetryMetrics is the telemetry section of a MetricsSnapshot: the
// TSDB's residency plus the SLO monitor's latest verdicts.
type TelemetryMetrics struct {
	Series    int    `json:"series"`
	Capacity  int    `json:"capacity"`
	Rejected  uint64 `json:"rejected,omitempty"`
	LastEpoch uint64 `json:"last_epoch"`
	// SLO holds the latest per-objective evaluations (empty until the
	// first recorded epoch).
	SLO            []SLOStatus `json:"slo,omitempty"`
	SLOAlertsTotal uint64      `json:"slo_alerts_total"`
	SLOBreaches    uint64      `json:"slo_breaches_total"`
}

// MetricsSnapshot is the GET /metrics body.
type MetricsSnapshot struct {
	UptimeSeconds   float64                          `json:"uptime_seconds"`
	Requests        map[string]RouteSnapshot         `json:"requests"`
	LatencySeconds  []obs.Bucket                     `json:"latency_seconds"`
	LatencyByRoute  map[string]obs.HistogramSnapshot `json:"latency_by_route"`
	Cache           CacheSnapshot                    `json:"cache"`
	Chips           map[string]ChipUsage             `json:"chips"`
	PanicsRecovered uint64                           `json:"panics_recovered"`
	RequestsShed    uint64                           `json:"requests_shed"`
	RequestTimeouts uint64                           `json:"request_timeouts"`
	Journal         *JournalSnapshot                 `json:"journal,omitempty"`
	Degraded        *DegradedSnapshot                `json:"degraded,omitempty"`
	Faults          *faults.Stats                    `json:"faults,omitempty"`
	Engine          *EngineMetrics                   `json:"engine,omitempty"`
	Guard           *GuardMetrics                    `json:"guard,omitempty"`
	Cluster         *ClusterMetrics                  `json:"cluster,omitempty"`
	Telemetry       *TelemetryMetrics                `json:"telemetry,omitempty"`
}

// guardMetrics assembles the guard section: counters from the guard,
// roster from the fleet (the journaled source of truth).
func guardMetrics(g *guard.Guard, fl *fleet.Service) *GuardMetrics {
	if g == nil {
		return nil
	}
	gm := &GuardMetrics{Metrics: g.MetricsSnapshot()}
	if fl != nil {
		gm.Quarantined = fl.QuarantinedIDs()
	}
	return gm
}

// engineMetrics assembles the aging-engine section from one snapshot,
// with the per-chip list capped at topK.
func engineMetrics(e *engine.Engine, topK int) *EngineMetrics {
	if e == nil {
		return nil
	}
	em := &EngineMetrics{Stats: e.Stats()}
	snap := e.Snapshot()
	for pi := range snap.Parts {
		pv := &snap.Parts[pi]
		for i := range pv.Odo {
			em.OdometerSum += pv.Odo[i]
			em.VthShiftSum += pv.Vth[i]
		}
	}
	em.Top = snap.TopByOdometer(topK)
	return em
}

// Snapshot assembles the exported view, folding in the predictor's
// cache stats, the fleet's per-chip usage, and — when the store is durable —
// its journal's fsync accounting, the degraded-mode supervisor, and
// the chaos injector's counters.
func (m *Metrics) Snapshot(predict *Predictor, fl *fleet.Service, inj *faults.Injector, g *gate) MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds:   time.Since(m.start).Seconds(),
		Chips:           fl.Usage(),
		PanicsRecovered: m.panics.Load(),
		RequestsShed:    m.shed.Load(),
		RequestTimeouts: m.timeouts.Load(),
	}
	if st, ok := fl.StoreStats(); ok {
		js := JournalSnapshot{
			Appends:      st.Appends,
			Compactions:  st.Compactions,
			Records:      st.Records,
			LastSeq:      st.LastSeq,
			FsyncMaxMS:   float64(st.FsyncMax) / float64(time.Millisecond),
			FsyncCount:   st.FsyncCount,
			SyncBatches:  st.SyncBatches,
			SyncBatchMax: st.BatchMax,
			CompactError: st.CompactError,
		}
		if st.FsyncCount > 0 {
			js.FsyncMeanMS = float64(st.FsyncTotal) / float64(st.FsyncCount) / float64(time.Millisecond)
		}
		snap.Journal = &js
	}
	snap.Degraded = g.snapshot(m.degradedRejects.Load())
	if inj != nil {
		fs := inj.Stats()
		snap.Faults = &fs
	}
	hits, misses, entries, capacity := predict.CacheStats()
	snap.Cache = CacheSnapshot{Hits: hits, Misses: misses, Entries: entries, Capacity: capacity}

	m.mu.Lock()
	defer m.mu.Unlock()
	snap.Requests = make(map[string]RouteSnapshot, len(m.routes))
	snap.LatencyByRoute = make(map[string]obs.HistogramSnapshot, len(m.routes))
	for route, rs := range m.routes {
		byStatus := make(map[string]uint64, len(rs.byStatus))
		for status, n := range rs.byStatus {
			byStatus[strconv.Itoa(status)] = n
		}
		lat := rs.latency.Snapshot()
		snap.Requests[route] = RouteSnapshot{Count: lat.Count, ByStatus: byStatus}
		snap.LatencyByRoute[route] = lat
	}
	snap.LatencySeconds = m.latency.Snapshot().Buckets
	return snap
}
