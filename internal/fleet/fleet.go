// Package fleet is the domain layer of the fleet aging service: it
// owns the registered chips (ChipEntry), their lifecycle (fabricate,
// stress, rejuvenate, measure, retire) and the batch operation
// pipeline, on top of a pluggable store (internal/store) that decides
// whether the fleet is durable. The HTTP layer (internal/serve) is
// pure transport over the Service type here; nothing in this package
// knows about routes, status codes, or middleware.
//
// Concurrency model: each chip carries its own mutex, so operations on
// different chips run in parallel while operations on the same chip
// serialize (a die can only live through one history). The store's
// shard locks sit strictly below chip locks in the lock hierarchy —
// see the internal/store package comment, which is the single place
// the order is defined.
//
// Durability model: mutating operations commit a store record while
// the chip's lock is still held, so the persisted order always matches
// the applied order and replay (NewService) reconstructs the exact
// aged state, RNG streams included. An operation whose commit fails is
// rolled back: the chip's state is saved before the simulation and
// restored, so the live die never holds what the journal does not. A
// commit that fails as store.ErrIndeterminate (a semisync primary's
// ack timeout) left its record in the journal, so its operation stays
// applied, as replay will apply it.
// A chip's phase record that is at least its checkpointEvery-th since
// its last checkpoint carries a new one — its full state, exact to the
// bit — and replay restores the newest checkpoint instead of re-running
// the history behind it, so a restart costs each chip its fabrication
// plus a short tail.
package fleet

import "selfheal"

// Chip kinds accepted by CreateSpec.
const (
	// KindBench is a Chip on the paper's external measurement bench
	// (thermal chamber, counter read-out, delay traces).
	KindBench = "bench"
	// KindMonitored is a MonitoredChip: the bare die with an on-die
	// Silicon-Odometer differential sensor.
	KindMonitored = "monitored"
)

// CreateSpec fabricates a chip into the fleet. Kind defaults to
// "bench"; the seed fixes process variation and noise, so the same
// (seed, kind) always yields an identical chip. It doubles as the
// POST /v1/chips wire body.
type CreateSpec struct {
	ID   string `json:"id"`
	Seed uint64 `json:"seed"`
	Kind string `json:"kind,omitempty"`
}

// ChipResponse describes one registered chip.
type ChipResponse struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// FreshDelayNS is the post-burn-in CUT delay (bench chips only).
	FreshDelayNS float64 `json:"fresh_delay_ns,omitempty"`
}

// ChipUsage is a snapshot of one chip's accumulated history, exported
// under /metrics. The Last* fields retain the most recent sensor
// read-out — the software analog of the paper's ring-oscillator
// telemetry — and are nil/zero until the matching sensor has been
// read (bench chips report delay/degradation-%, monitored chips
// beat-frequency/degradation-ppm).
type ChipUsage struct {
	Kind          string  `json:"kind"`
	StressSeconds float64 `json:"stress_seconds"`
	HealSeconds   float64 `json:"heal_seconds"`
	Ops           uint64  `json:"ops"`

	LastDelayNS        float64  `json:"last_delay_ns,omitempty"`
	LastDegradationPct *float64 `json:"last_degradation_pct,omitempty"`
	LastBeatHz         float64  `json:"last_beat_hz,omitempty"`
	LastDegradationPPM *float64 `json:"last_degradation_ppm,omitempty"`
}

// PhaseRequest drives a stress or rejuvenation phase. TempC/Vdd name
// the condition; for stress the rail must be positive, for
// rejuvenation ≤ 0 (0 = gated, negative = accelerated recovery).
// SampleHours > 0 asks bench chips for a delay trace.
type PhaseRequest struct {
	TempC       float64 `json:"temp_c"`
	Vdd         float64 `json:"vdd"`
	AC          bool    `json:"ac,omitempty"`
	Hours       float64 `json:"hours"`
	SampleHours float64 `json:"sample_hours,omitempty"`
}

// TracePoint is one sample of a bench chip's delay trace.
type TracePoint struct {
	Hours   float64 `json:"hours"`
	DelayNS float64 `json:"delay_ns"`
}

// PhaseResponse reports a completed stress or rejuvenation phase.
type PhaseResponse struct {
	ID    string       `json:"id"`
	Phase string       `json:"phase"`
	Hours float64      `json:"hours"`
	Trace []TracePoint `json:"trace,omitempty"`
}

// ReadingResponse is a bench chip's ring-oscillator measurement.
type ReadingResponse struct {
	ID             string  `json:"id"`
	Counts         int     `json:"counts"`
	FrequencyHz    float64 `json:"frequency_hz"`
	DelayNS        float64 `json:"delay_ns"`
	DegradationPct float64 `json:"degradation_pct"`
}

// OdometerResponse is a monitored chip's differential sensor read-out.
type OdometerResponse struct {
	ID             string  `json:"id"`
	BeatHz         float64 `json:"beat_hz"`
	DegradationPPM float64 `json:"degradation_ppm"`
}

// NewTracePoints converts a library delay trace to the wire form.
func NewTracePoints(trace []selfheal.TracePoint) []TracePoint {
	if len(trace) == 0 {
		return nil
	}
	out := make([]TracePoint, len(trace))
	for i, p := range trace {
		out[i] = TracePoint{Hours: p.Hours, DelayNS: p.DelayNS}
	}
	return out
}
