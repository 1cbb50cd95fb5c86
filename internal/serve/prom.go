package serve

import (
	"bytes"
	"net/http"
	"sort"
	"strconv"

	"selfheal/internal/obs"
	"selfheal/internal/obs/tsdb"
)

// handleMetrics serves the instrumentation snapshot. The default body
// is the JSON MetricsSnapshot; `?format=prometheus` renders the same
// snapshot in the Prometheus text exposition format instead, plus the
// Go runtime gauges. `?federate=1` answers for the whole fleet: the
// node scrapes its ring peers' telemetry and renders every node's
// newest samples with per-node labels (always Prometheus text).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if v := r.URL.Query().Get("federate"); v == "1" || v == "true" {
		fleet := s.gatherFleet(r.Context(), nil, tsdb.Query{Limit: 1}, "")
		var buf bytes.Buffer
		writePromFederated(&buf, fleet)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(buf.Bytes())
		return
	}
	snap := s.metrics.Snapshot(s.predict, s.fleet, s.faults, s.gate)
	snap.Engine = engineMetrics(s.aging, s.cfg.MetricsChipLimit)
	snap.Guard = guardMetrics(s.guard, s.fleet)
	snap.Cluster = clusterMetrics(s.cluster)
	snap.Telemetry = s.telemetryMetrics()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.writeJSON(w, http.StatusOK, snap)
	case "prometheus":
		var buf bytes.Buffer
		writeProm(&buf, snap, s.cfg.MetricsChipLimit)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(buf.Bytes())
	default:
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: "serve: unknown metrics format " + strconv.Quote(format) + " (want json or prometheus)"})
	}
}

// writeProm renders a MetricsSnapshot in the Prometheus text format.
// It works from the snapshot — the single source of truth both formats
// share — so the two expositions can never disagree. Map iteration is
// sorted so scrapes are diffable. chipLimit caps the per-chip series
// (see writePromChips).
func writeProm(buf *bytes.Buffer, snap MetricsSnapshot, chipLimit int) {
	p := obs.NewPromWriter(buf)

	p.Header("selfheal_uptime_seconds", "Seconds since the service started.", "gauge")
	p.Sample("selfheal_uptime_seconds", nil, snap.UptimeSeconds)

	routes := make([]string, 0, len(snap.Requests))
	for route := range snap.Requests {
		routes = append(routes, route)
	}
	sort.Strings(routes)

	p.Header("selfheal_requests_total", "Requests served, by route pattern and status.", "counter")
	for _, route := range routes {
		rs := snap.Requests[route]
		statuses := make([]string, 0, len(rs.ByStatus))
		for status := range rs.ByStatus {
			statuses = append(statuses, status)
		}
		sort.Strings(statuses)
		for _, status := range statuses {
			p.Sample("selfheal_requests_total",
				[]obs.Label{{Name: "route", Value: route}, {Name: "status", Value: status}},
				float64(rs.ByStatus[status]))
		}
	}

	p.Header("selfheal_request_duration_seconds", "Request latency, by route pattern.", "histogram")
	for _, route := range routes {
		if rl, ok := snap.LatencyByRoute[route]; ok {
			p.Histogram("selfheal_request_duration_seconds", []obs.Label{{Name: "route", Value: route}}, rl)
		}
	}

	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"selfheal_panics_recovered_total", "Handler panics recovered into 500s.", snap.PanicsRecovered},
		{"selfheal_requests_shed_total", "Requests rejected 429 by the load shedder.", snap.RequestsShed},
		{"selfheal_request_timeouts_total", "Requests cut off 503 by a route timeout.", snap.RequestTimeouts},
		{"selfheal_predict_cache_hits_total", "Prediction memo cache hits.", snap.Cache.Hits},
		{"selfheal_predict_cache_misses_total", "Prediction memo cache misses.", snap.Cache.Misses},
	} {
		p.Header(c.name, c.help, "counter")
		p.Sample(c.name, nil, float64(c.v))
	}
	p.Header("selfheal_predict_cache_entries", "Prediction memo cache residency.", "gauge")
	p.Sample("selfheal_predict_cache_entries", nil, float64(snap.Cache.Entries))

	writePromChips(p, snap.Chips, chipLimit)

	if j := snap.Journal; j != nil {
		for _, c := range []struct {
			name, help string
			v          float64
		}{
			{"selfheal_journal_appends_total", "Records appended to the journal.", float64(j.Appends)},
			{"selfheal_journal_compactions_total", "Journal compactions completed.", float64(j.Compactions)},
			{"selfheal_journal_fsync_total", "Journal fsync calls.", float64(j.FsyncCount)},
			{"selfheal_journal_sync_batches_total", "Group commits that covered more than one append.", float64(j.SyncBatches)},
		} {
			p.Header(c.name, c.help, "counter")
			p.Sample(c.name, nil, c.v)
		}
		p.Header("selfheal_journal_records", "Live records in the journal history.", "gauge")
		p.Sample("selfheal_journal_records", nil, float64(j.Records))
		p.Header("selfheal_journal_fsync_max_seconds", "Slowest fsync observed.", "gauge")
		p.Sample("selfheal_journal_fsync_max_seconds", nil, j.FsyncMaxMS/1000)
		p.Header("selfheal_journal_sync_batch_max", "Largest group-commit batch observed.", "gauge")
		p.Sample("selfheal_journal_sync_batch_max", nil, float64(j.SyncBatchMax))
	}

	if d := snap.Degraded; d != nil {
		ready := 0.0
		if d.WriteReady {
			ready = 1
		}
		p.Header("selfheal_write_ready", "1 when the service accepts writes, 0 while degraded read-only.", "gauge")
		p.Sample("selfheal_write_ready", nil, ready)
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"selfheal_degraded_enters_total", "Degraded-mode episodes entered.", d.Enters},
			{"selfheal_degraded_exits_total", "Degraded-mode episodes recovered from.", d.Exits},
			{"selfheal_degraded_probes_total", "Recovery probes run.", d.Probes},
			{"selfheal_degraded_writes_rejected_total", "Writes rejected 503 while degraded.", d.WritesRejected},
		} {
			p.Header(c.name, c.help, "counter")
			p.Sample(c.name, nil, float64(c.v))
		}
	}

	if e := snap.Engine; e != nil {
		writePromEngine(p, e)
	}
	if g := snap.Guard; g != nil {
		writePromGuard(p, g, chipLimit)
	}
	if c := snap.Cluster; c != nil {
		writePromCluster(p, c)
	}
	if t := snap.Telemetry; t != nil {
		writePromTelemetry(p, t)
	}

	obs.WriteRuntimeMetrics(p)
}

// writePromTelemetry emits the telemetry TSDB's residency gauges and
// the SLO monitor's slo_* series (burn rates, ok flags, alert
// counters). The per-epoch sample values themselves are served by
// /v1/telemetry and the federate=1 exposition, not here — one node's
// plain scrape stays O(routes), not O(series × window).
func writePromTelemetry(p *obs.PromWriter, t *TelemetryMetrics) {
	p.Header("telemetry_series", "Distinct per-epoch series in the telemetry TSDB.", "gauge")
	p.Sample("telemetry_series", nil, float64(t.Series))
	p.Header("telemetry_capacity_epochs", "Per-series ring capacity of the telemetry TSDB.", "gauge")
	p.Sample("telemetry_capacity_epochs", nil, float64(t.Capacity))
	p.Header("telemetry_last_epoch", "Newest epoch recorded in the telemetry TSDB.", "gauge")
	p.Sample("telemetry_last_epoch", nil, float64(t.LastEpoch))
	if t.Rejected > 0 {
		p.Header("telemetry_rejected_total", "Telemetry appends dropped at the series cap.", "counter")
		p.Sample("telemetry_rejected_total", nil, float64(t.Rejected))
	}

	p.Header("slo_ok", "1 while the objective is within budget.", "gauge")
	for _, st := range t.SLO {
		ok := 0.0
		if st.OK {
			ok = 1
		}
		p.Sample("slo_ok", []obs.Label{{Name: "slo", Value: string(st.SLO)}}, ok)
	}
	p.Header("slo_burn_rate", "Normalized budget burn; 1.0 is the breach threshold.", "gauge")
	for _, st := range t.SLO {
		p.Sample("slo_burn_rate", []obs.Label{{Name: "slo", Value: string(st.SLO)}}, st.Burn)
	}
	p.Header("slo_alerts_total", "SLO breach and recovery alerts raised.", "counter")
	p.Sample("slo_alerts_total", nil, float64(t.SLOAlertsTotal))
	p.Header("slo_breaches_total", "SLO breach transitions observed.", "counter")
	p.Sample("slo_breaches_total", nil, float64(t.SLOBreaches))
}

// writePromCluster emits the placement and replication series for one
// node of a multi-node fleet. Replication counters are labelled by
// role so a primary and a promoted ex-standby scrape identically.
func writePromCluster(p *obs.PromWriter, c *ClusterMetrics) {
	node := []obs.Label{{Name: "node", Value: c.NodeID}}
	p.Header("cluster_peers", "Nodes in this node's ring view.", "gauge")
	p.Sample("cluster_peers", node, float64(c.Peers))
	p.Header("cluster_forwards_total", "Chip requests 307-forwarded to their owner.", "counter")
	p.Sample("cluster_forwards_total", node, float64(c.Forwards))
	p.Header("cluster_wrong_node_rejects_total", "Batch items refused because another node owns the chip.", "counter")
	p.Sample("cluster_wrong_node_rejects_total", node, float64(c.WrongNode))

	r := c.Repl
	if r == nil {
		return
	}
	role := []obs.Label{{Name: "role", Value: r.Role}}
	connected := 0.0
	if r.Connected {
		connected = 1
	}
	for _, g := range []struct {
		name, help string
		v          float64
	}{
		{"repl_connected", "1 when the replication link is live (snapshot applied).", connected},
		{"repl_followers", "Followers currently attached (primary role).", float64(r.Followers)},
		{"repl_last_seq", "Highest journal sequence committed locally.", float64(r.LastSeq)},
		{"repl_acked_seq", "Highest sequence acknowledged by a follower (primary role).", float64(r.AckedSeq)},
		{"repl_lag_records", "Records committed locally but not yet follower-acknowledged.", float64(r.LagRecords)},
	} {
		p.Header(g.name, g.help, "gauge")
		p.Sample(g.name, role, g.v)
	}
	for _, ct := range []struct {
		name, help string
		v          uint64
	}{
		{"repl_frames_sent_total", "Replication frames written to followers.", r.FramesSent},
		{"repl_records_sent_total", "Journal records streamed to followers.", r.RecordsSent},
		{"repl_acks_total", "Follower acknowledgements received.", r.AcksReceived},
		{"repl_ack_timeouts_total", "Semisync appends that timed out waiting for a follower ack.", r.AckTimeouts},
		{"repl_refused_total", "Semisync mutations refused for lack of a follower.", r.Refused},
		{"repl_resyncs_total", "Full snapshot resyncs served or applied.", r.Snapshots},
		{"repl_connects_total", "Replication sessions established.", r.Connects},
		{"repl_disconnects_total", "Replication sessions dropped.", r.Disconnects},
		{"repl_dropped_frames_total", "Tail frames dropped by fault injection.", r.DroppedFrames},
		{"repl_records_applied_total", "Records applied from the stream (follower role).", r.RecordsApplied},
		{"repl_gaps_total", "Sequence gaps detected in the tail (each forces a resync).", r.Gaps},
	} {
		p.Header(ct.name, ct.help, "counter")
		p.Sample(ct.name, role, float64(ct.v))
	}

	// The semisync follower-ack latency histogram (primary role only):
	// how long acknowledged mutations waited on the replication link,
	// bucketed for LAN round trips.
	if h := r.AckWait; h != nil {
		p.Header("repl_ack_wait_seconds", "Semisync follower-ack wait per acknowledged mutation.", "histogram")
		p.Histogram("repl_ack_wait_seconds", role, *h)
	}
}

// writePromGuard emits the blue team's counters. The per-chip roster
// gauge respects the same cardinality cap as the rest of the scrape:
// with more than limit chips quarantined at once (itself bounded by
// the guard's SLO budget), only the first limit ids — the roster is
// sorted, so the cut is stable — keep a labelled series, and the
// guard_quarantined_chips aggregate carries the true count.
func writePromGuard(p *obs.PromWriter, g *GuardMetrics, limit int) {
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"guard_alerts_total", "Guard alerts raised (all kinds).", g.AlertsTotal},
		{"guard_remaps_total", "Quarantined chips remapped onto spare fabric.", g.RemapsTotal},
		{"guard_rejuvenation_epochs_total", "Accelerated-rejuvenation sleep epochs delivered.", g.RejuvenationEpochsTotal},
		{"guard_releases_total", "Chips released from quarantine after recovery.", g.ReleasesTotal},
	} {
		p.Header(c.name, c.help, "counter")
		p.Sample(c.name, nil, float64(c.v))
	}
	p.Header("guard_quarantined_chips", "Chips currently quarantined.", "gauge")
	p.Sample("guard_quarantined_chips", nil, float64(g.QuarantinedChips))
	if g.SpareFreeCells >= 0 {
		p.Header("guard_spare_free_cells", "Unallocated cells left on the spare fabric.", "gauge")
		p.Sample("guard_spare_free_cells", nil, float64(g.SpareFreeCells))
	}
	ids := g.Quarantined
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	p.Header("guard_chip_quarantined", "1 for each currently quarantined chip.", "gauge")
	for _, id := range ids {
		p.Sample("guard_chip_quarantined", []obs.Label{{Name: "chip", Value: id}}, 1)
	}
}

// writePromEngine emits the fleet aging engine's gauges. Per-chip
// cardinality is already capped: the snapshot's Top list holds only
// the most aged chips, with whole-fleet aging carried by the
// aggregate sums.
func writePromEngine(p *obs.PromWriter, e *EngineMetrics) {
	st := e.Stats
	for _, g := range []struct {
		name, help string
		v          float64
	}{
		{"selfheal_engine_epoch", "Current simulation epoch.", float64(st.Epoch)},
		{"selfheal_engine_sim_hours", "Simulated hours advanced since the journal began.", st.SimHours},
		{"selfheal_engine_chips", "Chips registered with the aging engine.", float64(st.Chips)},
		{"selfheal_engine_epoch_lag_seconds", "How far the last tick started behind its due time.", st.EpochLagSeconds},
		{"selfheal_engine_chips_per_second", "Chips advanced per wall-clock second in the last tick.", st.ChipsPerSecond},
		{"selfheal_engine_tick_seconds", "Duration of the last tick.", st.LastTickSeconds},
		{"selfheal_engine_pending_epochs", "Epochs advanced but not yet journaled.", float64(st.PendingEpochs)},
		{"selfheal_engine_odometer_epochs_sum", "Stress epochs endured across the whole engine fleet.", float64(e.OdometerSum)},
		{"selfheal_engine_vth_shift_v_sum", "Threshold shift in volts summed across the whole engine fleet.", e.VthShiftSum},
	} {
		p.Header(g.name, g.help, "gauge")
		p.Sample(g.name, nil, g.v)
	}
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"selfheal_engine_ticks_total", "Epoch ticks completed.", st.TicksTotal},
		{"selfheal_engine_events_applied_total", "Mutation events applied between epochs.", st.EventsApplied},
		{"selfheal_engine_commit_errors_total", "Engine journal commits that failed.", st.CommitErrors},
	} {
		p.Header(c.name, c.help, "counter")
		p.Sample(c.name, nil, float64(c.v))
	}

	p.Header("selfheal_engine_chip_odometer_epochs", "Stress epochs endured, for the most aged chips.", "gauge")
	for _, cv := range e.Top {
		p.Sample("selfheal_engine_chip_odometer_epochs",
			[]obs.Label{{Name: "chip", Value: cv.ID}}, float64(cv.Odometer))
	}
	p.Header("selfheal_engine_chip_vth_shift_v", "Threshold shift in volts, for the most aged chips.", "gauge")
	for _, cv := range e.Top {
		p.Sample("selfheal_engine_chip_vth_shift_v",
			[]obs.Label{{Name: "chip", Value: cv.ID}}, cv.VthShift)
	}
}

// writePromChips emits the per-chip aging telemetry — the software
// analog of the paper's ring-oscillator sensor read-out. Usage
// counters always appear; the aging gauges appear once the matching
// sensor has been read, reporting its most recent value.
//
// Cardinality is capped at limit chips: fleet-wide aggregates are
// always emitted, and once the fleet outgrows the limit only the most
// aged chips (by accumulated stress time, ties by id) keep their
// per-chip series — a scrape must not grow with an engine-scale fleet.
func writePromChips(p *obs.PromWriter, chips map[string]ChipUsage, limit int) {
	ids := make([]string, 0, len(chips))
	var stressSum, healSum float64
	var opsSum uint64
	for id, u := range chips {
		ids = append(ids, id)
		stressSum += u.StressSeconds
		healSum += u.HealSeconds
		opsSum += u.Ops
	}
	sort.Strings(ids)

	p.Header("selfheal_chips", "Chips registered in the fleet.", "gauge")
	p.Sample("selfheal_chips", nil, float64(len(chips)))
	p.Header("selfheal_chip_stress_seconds_sum", "Accumulated stress time across the whole fleet.", "counter")
	p.Sample("selfheal_chip_stress_seconds_sum", nil, stressSum)
	p.Header("selfheal_chip_heal_seconds_sum", "Accumulated rejuvenation time across the whole fleet.", "counter")
	p.Sample("selfheal_chip_heal_seconds_sum", nil, healSum)
	p.Header("selfheal_chip_ops_sum", "Operations applied across the whole fleet.", "counter")
	p.Sample("selfheal_chip_ops_sum", nil, float64(opsSum))

	if limit > 0 && len(ids) > limit {
		sort.Slice(ids, func(i, j int) bool {
			si, sj := chips[ids[i]].StressSeconds, chips[ids[j]].StressSeconds
			if si != sj {
				return si > sj
			}
			return ids[i] < ids[j]
		})
		ids = ids[:limit]
		sort.Strings(ids)
	}

	p.Header("selfheal_chip_stress_seconds_total", "Accumulated stress time, per chip.", "counter")
	for _, id := range ids {
		p.Sample("selfheal_chip_stress_seconds_total",
			[]obs.Label{{Name: "chip", Value: id}, {Name: "kind", Value: chips[id].Kind}},
			chips[id].StressSeconds)
	}
	p.Header("selfheal_chip_heal_seconds_total", "Accumulated rejuvenation time, per chip.", "counter")
	for _, id := range ids {
		p.Sample("selfheal_chip_heal_seconds_total",
			[]obs.Label{{Name: "chip", Value: id}, {Name: "kind", Value: chips[id].Kind}},
			chips[id].HealSeconds)
	}
	p.Header("selfheal_chip_ops_total", "Operations applied, per chip.", "counter")
	for _, id := range ids {
		p.Sample("selfheal_chip_ops_total",
			[]obs.Label{{Name: "chip", Value: id}, {Name: "kind", Value: chips[id].Kind}},
			float64(chips[id].Ops))
	}

	p.Header("selfheal_chip_delay_ns", "Last measured CUT delay (bench chips).", "gauge")
	for _, id := range ids {
		if u := chips[id]; u.LastDegradationPct != nil {
			p.Sample("selfheal_chip_delay_ns",
				[]obs.Label{{Name: "chip", Value: id}}, u.LastDelayNS)
		}
	}
	p.Header("selfheal_chip_degradation_pct", "Last measured frequency degradation percentage (bench chips).", "gauge")
	for _, id := range ids {
		if u := chips[id]; u.LastDegradationPct != nil {
			p.Sample("selfheal_chip_degradation_pct",
				[]obs.Label{{Name: "chip", Value: id}}, *u.LastDegradationPct)
		}
	}
	p.Header("selfheal_chip_beat_hz", "Last odometer beat frequency (monitored chips).", "gauge")
	for _, id := range ids {
		if u := chips[id]; u.LastDegradationPPM != nil {
			p.Sample("selfheal_chip_beat_hz",
				[]obs.Label{{Name: "chip", Value: id}}, u.LastBeatHz)
		}
	}
	p.Header("selfheal_chip_degradation_ppm", "Last odometer aging read-out in parts per million (monitored chips).", "gauge")
	for _, id := range ids {
		if u := chips[id]; u.LastDegradationPPM != nil {
			p.Sample("selfheal_chip_degradation_ppm",
				[]obs.Label{{Name: "chip", Value: id}}, *u.LastDegradationPPM)
		}
	}
}
