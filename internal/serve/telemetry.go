package serve

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"selfheal/internal/engine"
	"selfheal/internal/guard"
	"selfheal/internal/obs/tsdb"
	"selfheal/internal/repl"
)

// telemetry is the node's per-epoch recorder: an engine OnEpoch hook
// that reduces each snapshot (plus guard, replication and request
// counters) to fleet aggregates and appends them to the fixed-memory
// TSDB, then lets the SLO monitor evaluate its rolling windows. It
// runs on the engine's ticking goroutine — after the tick lock is
// released, never during replay — so everything here must be cheap and
// must only take leaf locks (telemetry.mu, tsdb, the SLO monitor's).
type telemetry struct {
	db  *tsdb.DB
	slo *sloMonitor

	mu      sync.Mutex
	mutPrev uint64 // mutating-request total at the last epoch
	errPrev uint64 // 5xx mutating-request total at the last epoch
	seeded  bool
}

func newTelemetry(capacity int, slo *sloMonitor) *telemetry {
	return &telemetry{db: tsdb.New(capacity), slo: slo}
}

// record appends one epoch from its engine.Reduction: the margin
// distribution (margin = −Vth, the guard band still unconsumed) and the
// aging-rate distribution (per-chip ΔVth since the previous tick's
// snapshot; none on the engine's first tick). gd is nil without the
// guard and replStats nil outside cluster mode.
func (t *telemetry) record(epoch uint64, r *engine.Reduction, aging *engine.Engine, gd *guard.Guard, replStats func() *repl.Stats, mutTotal, mutErrs uint64) {
	db := t.db
	if r.Snap.Chips > 0 {
		db.Append("margin_min_v", epoch, r.MarginMin)
		db.Append("margin_p50_v", epoch, r.MarginP50)
		db.Append("margin_p95_v", epoch, r.MarginP95)
	}

	t.mu.Lock()
	seeded := t.seeded
	dMut, dErr := mutTotal-t.mutPrev, mutErrs-t.errPrev
	t.mutPrev, t.errPrev = mutTotal, mutErrs
	t.seeded = true
	t.mu.Unlock()
	if r.Deltas > 0 {
		db.Append("aging_rate_p50_v", epoch, r.DeltaP50)
		db.Append("aging_rate_p95_v", epoch, r.DeltaP95)
		db.Append("aging_rate_max_v", epoch, r.DeltaMax)
	}

	// Mutation throughput: per-epoch deltas of the mutating-route
	// request counters. The first epoch has no baseline, so skip it.
	if seeded {
		db.Append("mutations_per_epoch", epoch, float64(dMut))
		db.Append("mutation_errors_per_epoch", epoch, float64(dErr))
	}

	st := aging.Stats()
	db.Append("epoch_lag_seconds", epoch, st.EpochLagSeconds)
	db.Append("tick_seconds", epoch, st.LastTickSeconds)
	db.Append("engine_chips", epoch, float64(st.Chips))

	if gd != nil {
		gm := gd.MetricsSnapshot()
		db.Append("quarantined_chips", epoch, float64(gm.QuarantinedChips))
		db.Append("guard_alerts_total", epoch, float64(gm.AlertsTotal))
		db.Append("guard_releases_total", epoch, float64(gm.ReleasesTotal))
		db.Append("guard_recovered90_total", epoch, float64(gm.Recovered90Total))
	}

	if replStats != nil {
		if rs := replStats(); rs != nil {
			db.Append("repl_lag_records", epoch, float64(rs.LagRecords))
			connected := 0.0
			if rs.Connected {
				connected = 1
			}
			db.Append("repl_connected", epoch, connected)
		}
	}

	t.slo.evaluate(epoch, db)
}

// TelemetryResponse is the GET /v1/telemetry body — one node's
// per-epoch series, optionally filtered and downsampled.
type TelemetryResponse struct {
	NodeID string `json:"node_id"`
	// Epoch is the newest recorded epoch, LastUnix its wall time —
	// what federation staleness checks compare against. Both zero on a
	// node that has recorded nothing (engine disabled or just booted).
	Epoch    uint64 `json:"epoch"`
	LastUnix int64  `json:"last_unix,omitempty"`
	// Capacity is the per-series ring size (how many epochs are kept).
	Capacity int                      `json:"capacity"`
	Series   map[string][]tsdb.Sample `json:"series"`
	SLO      []SLOStatus              `json:"slo,omitempty"`
	Alerts   []SLOAlert               `json:"slo_alerts,omitempty"`
}

// parseTelemetryQuery reads the shared query grammar:
//
//	series=margin_p50_v,epoch_lag_seconds   comma-separated names ("" = all)
//	since=1200                              only samples at epoch >= since
//	step=4                                  downsample: mean per step-epoch bucket
//	limit=100                               newest samples kept per series
func parseTelemetryQuery(q url.Values) (names []string, query tsdb.Query, err string) {
	if v := q.Get("series"); v != "" {
		for _, name := range strings.Split(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	if v := q.Get("since"); v != "" {
		n, perr := strconv.ParseUint(v, 10, 64)
		if perr != nil {
			return nil, query, "serve: since must be a non-negative integer, got " + strconv.Quote(v)
		}
		query.SinceEpoch = n
	}
	if v := q.Get("step"); v != "" {
		n, perr := strconv.ParseUint(v, 10, 64)
		if perr != nil || n < 1 {
			return nil, query, "serve: step must be a positive integer, got " + strconv.Quote(v)
		}
		query.Step = n
	}
	if v := q.Get("limit"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 1 {
			return nil, query, "serve: limit must be a positive integer, got " + strconv.Quote(v)
		}
		query.Limit = n
	}
	return names, query, ""
}

// localTelemetry assembles this node's response.
func (s *Server) localTelemetry(names []string, query tsdb.Query) TelemetryResponse {
	t := s.telem
	resp := TelemetryResponse{
		NodeID:   s.nodeID(),
		Capacity: t.db.Capacity(),
		Series:   make(map[string][]tsdb.Sample),
	}
	if len(names) == 0 {
		names = t.db.Names()
	}
	for _, name := range names {
		if samples := t.db.Select(name, query); samples != nil {
			resp.Series[name] = samples
		}
	}
	// The newest epoch across all series (not just the selected ones),
	// so staleness does not depend on the filter.
	for _, name := range t.db.Names() {
		if sm, ok := t.db.Latest(name); ok {
			if sm.Epoch > resp.Epoch {
				resp.Epoch = sm.Epoch
			}
			if sm.Unix > resp.LastUnix {
				resp.LastUnix = sm.Unix
			}
		}
	}
	resp.SLO, resp.Alerts = s.telem.slo.snapshot(50)
	return resp
}

// nodeID names this node in telemetry and traces: the cluster node id,
// or "single" outside cluster mode.
func (s *Server) nodeID() string {
	if s.cluster != nil {
		return s.cluster.nodeID
	}
	return "single"
}

// telemetryMetrics assembles the telemetry section of a
// MetricsSnapshot.
func (s *Server) telemetryMetrics() *TelemetryMetrics {
	t := s.telem
	if t == nil {
		return nil
	}
	st := t.db.Stats()
	tm := &TelemetryMetrics{Series: st.Series, Capacity: st.Capacity, Rejected: st.Rejected}
	for _, name := range t.db.Names() {
		if sm, ok := t.db.Latest(name); ok && sm.Epoch > tm.LastEpoch {
			tm.LastEpoch = sm.Epoch
		}
	}
	tm.SLO, _ = t.slo.snapshot(1)
	tm.SLOAlertsTotal, tm.SLOBreaches = t.slo.counters()
	return tm
}

// handleTelemetry is GET /v1/telemetry: this node's per-epoch aging
// time-series (see parseTelemetryQuery for the parameters).
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	names, query, errMsg := parseTelemetryQuery(r.URL.Query())
	if errMsg != "" {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: errMsg, RequestID: RequestIDFrom(r.Context())})
		return
	}
	s.writeJSON(w, http.StatusOK, s.localTelemetry(names, query))
}
