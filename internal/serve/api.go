// Package serve is the fleet aging service: an HTTP JSON API that
// hosts a registry of named simulated chips (stress / rejuvenate /
// measure, guarded per chip so different chips progress in parallel)
// and a stateless predictor for the closed-form model, fronted by a
// bounded LRU memo cache — every simulation here is deterministic
// given its parameters, so identical requests are served from cache.
//
// The wire types in this file are shared with the CLIs (`selfheal-mc
// -json`, `selfheal-margin -json`) so scripted pipelines see one
// schema whether they shell out or curl.
package serve

import (
	"encoding/json"
	"io"

	"selfheal"
	"selfheal/internal/fleet"
)

// WriteJSON writes v as two-space-indented JSON with a trailing
// newline — the one encoder behind every service response and every
// CLI -json flag.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ErrorResponse is the body of every non-2xx response. RequestID (the
// X-Request-ID the client sent, or the one the service minted) links
// the error to the server-side request log. Code, when present, is a
// machine-readable classification (CodeDegraded or CodeQuarantined)
// that clients can branch on without parsing the message.
type ErrorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// CodeDegraded marks a 503 caused by the journal being unable to make
// writes durable: the fleet is serving reads from memory and will
// restore write mode on its own when the storage recovers. Retry the
// operation after the Retry-After hint.
const CodeDegraded = "degraded"

// CodeQuarantined marks a 503 caused by the guard quarantining the
// target chip: mutations are refused while it heals under accelerated
// rejuvenation, reads keep serving, and the quarantine lifts on its
// own once the wearout excess is recovered. Retry the operation after
// the Retry-After hint (idempotent operations only — the chip's state
// is unchanged by the refusal).
const CodeQuarantined = "quarantined"

// ReadyResponse is the GET /readyz body: liveness stays on /healthz,
// while this reports *write*-readiness — 200 when mutating routes are
// accepted, 503 (with Reason) while the service is degraded.
type ReadyResponse struct {
	Status     string `json:"status"`
	WriteReady bool   `json:"write_ready"`
	Reason     string `json:"reason,omitempty"`
}

// Chip kinds accepted by CreateChipRequest.
const (
	KindBench     = fleet.KindBench
	KindMonitored = fleet.KindMonitored
)

// The chip-facing wire types live in the domain layer (internal/fleet)
// and are aliased here so the client and the CLIs keep importing one
// schema from one place.
type (
	// CreateChipRequest fabricates a chip into the fleet — the POST
	// /v1/chips body.
	CreateChipRequest = fleet.CreateSpec
	// ChipResponse describes one registered chip.
	ChipResponse = fleet.ChipResponse
	// ChipUsage is one chip's accumulated history under /metrics.
	ChipUsage = fleet.ChipUsage
	// PhaseRequest drives POST /v1/chips/{id}/stress and /rejuvenate.
	PhaseRequest = fleet.PhaseRequest
	// TracePoint is one sample of a bench chip's delay trace.
	TracePoint = fleet.TracePoint
	// PhaseResponse reports a completed stress or rejuvenation phase.
	PhaseResponse = fleet.PhaseResponse
	// ReadingResponse is a bench chip's ring-oscillator measurement.
	ReadingResponse = fleet.ReadingResponse
	// OdometerResponse is a monitored chip's differential sensor read-out.
	OdometerResponse = fleet.OdometerResponse
	// BatchOpSpec is one item of a POST /v1/ops:batch request.
	BatchOpSpec = fleet.OpSpec
	// BatchCreateResult is one item of a POST /v1/chips:batch response.
	BatchCreateResult = fleet.CreateResult
	// BatchOpResult is one item of a POST /v1/ops:batch response.
	BatchOpResult = fleet.OpResult
)

// ChipListResponse is the GET /v1/chips body.
type ChipListResponse struct {
	Chips []ChipResponse `json:"chips"`
}

// DeleteChipResponse is the DELETE /v1/chips/{id} body.
type DeleteChipResponse struct {
	ID      string `json:"id"`
	Deleted bool   `json:"deleted"`
}

// MaxBatchItems caps the item count of one batch request; larger
// batches are rejected 400 before any item runs — split them client
// side.
const MaxBatchItems = 1024

// BatchCreateRequest is the POST /v1/chips:batch body: up to
// MaxBatchItems chips fabricated concurrently.
type BatchCreateRequest struct {
	Chips []CreateChipRequest `json:"chips"`
}

// BatchCreateResponse reports a bulk create item by item:
// Results[i] corresponds to Chips[i], failures don't block the rest.
type BatchCreateResponse struct {
	Results []BatchCreateResult `json:"results"`
	Created int                 `json:"created"`
	Failed  int                 `json:"failed"`
}

// BatchOpsRequest is the POST /v1/ops:batch body: a mixed
// stress/rejuvenate/measure/odometer batch across many chips.
type BatchOpsRequest struct {
	Ops []BatchOpSpec `json:"ops"`
}

// BatchOpsResponse reports a mixed-operation batch item by item;
// Results[i] corresponds to Ops[i].
type BatchOpsResponse struct {
	Results   []BatchOpResult `json:"results"`
	Succeeded int             `json:"succeeded"`
	Failed    int             `json:"failed"`
}

// ShiftRequest evaluates the closed-form TD model: the threshold shift
// after StressHours under (TempC, Vdd, Duty), and — when SleepHours is
// set — the fraction of the recoverable shift a subsequent sleep under
// (SleepTempC, SleepVdd) removes.
type ShiftRequest struct {
	TempC       float64 `json:"temp_c"`
	Vdd         float64 `json:"vdd"`
	Duty        float64 `json:"duty"`
	StressHours float64 `json:"stress_hours"`
	SleepTempC  float64 `json:"sleep_temp_c,omitempty"`
	SleepVdd    float64 `json:"sleep_vdd,omitempty"`
	SleepHours  float64 `json:"sleep_hours,omitempty"`
}

// ShiftResponse is the POST /v1/predict/shift body.
type ShiftResponse struct {
	ShiftV            float64  `json:"shift_v"`
	RecoveredFraction *float64 `json:"recovered_fraction,omitempty"`
	Cached            bool     `json:"cached"`
}

// PolicySpec names one rejuvenation policy for a schedule comparison.
// Kind is "none", "proactive" (Alpha, SleepHours, SleepTempC,
// SleepVdd) or "reactive" (TriggerPct, RelaxPct, SleepTempC, SleepVdd).
type PolicySpec struct {
	Kind       string  `json:"kind"`
	Alpha      float64 `json:"alpha,omitempty"`
	SleepHours float64 `json:"sleep_hours,omitempty"`
	TriggerPct float64 `json:"trigger_pct,omitempty"`
	RelaxPct   float64 `json:"relax_pct,omitempty"`
	SleepTempC float64 `json:"sleep_temp_c,omitempty"`
	SleepVdd   float64 `json:"sleep_vdd,omitempty"`
}

// SchedulesRequest drives POST /v1/predict/schedules.
type SchedulesRequest struct {
	Seed        uint64       `json:"seed"`
	HorizonDays float64      `json:"horizon_days"`
	Policies    []PolicySpec `json:"policies"`
	// IncludeTrace adds per-policy degradation traces to the response
	// (they can be large; cached outcomes always retain them).
	IncludeTrace bool `json:"include_trace,omitempty"`
}

// ScheduleOutcomeBody mirrors selfheal.ScheduleOutcome on the wire.
type ScheduleOutcomeBody struct {
	Policy             string       `json:"policy"`
	ActiveFraction     float64      `json:"active_fraction"`
	PeakPct            float64      `json:"peak_pct"`
	FinalPct           float64      `json:"final_pct"`
	MeanPct            float64      `json:"mean_pct"`
	MarginProvisionPct float64      `json:"margin_provision_pct"`
	Trace              []TracePoint `json:"trace,omitempty"`
}

// SchedulesResponse is the POST /v1/predict/schedules body.
type SchedulesResponse struct {
	Outcomes []ScheduleOutcomeBody `json:"outcomes"`
	Cached   bool                  `json:"cached"`
}

// MulticoreRequest drives POST /v1/predict/multicore.
type MulticoreRequest struct {
	Scheduler string  `json:"scheduler"`
	Demand    int     `json:"demand"`
	Days      float64 `json:"days"`
}

// MulticoreResponse mirrors selfheal.MulticoreOutcome on the wire. It
// is also what `selfheal-mc -json` emits.
type MulticoreResponse struct {
	Scheduler    string    `json:"scheduler"`
	WorstPct     float64   `json:"worst_pct"`
	MeanPct      float64   `json:"mean_pct"`
	SpreadPct    float64   `json:"spread_pct"`
	HealSlots    int       `json:"heal_slots"`
	CoreSlots    int       `json:"core_slots"`
	PerCorePct   []float64 `json:"per_core_pct"`
	TemperatureC []float64 `json:"temperature_c"`
	Cached       bool      `json:"cached,omitempty"`
}

// NewMulticoreResponse converts a library outcome to the wire form.
func NewMulticoreResponse(out selfheal.MulticoreOutcome) MulticoreResponse {
	return MulticoreResponse{
		Scheduler:    out.Scheduler,
		WorstPct:     out.WorstPct,
		MeanPct:      out.MeanPct,
		SpreadPct:    out.SpreadPct,
		HealSlots:    out.HealSlots,
		CoreSlots:    out.CoreSlots,
		PerCorePct:   out.PerCorePct,
		TemperatureC: out.TemperatureC,
	}
}

// MarginResponse is what `selfheal-margin -json` emits: the mission
// profile and the margins/lifetimes the sign-off calculator derives.
// It lives here, beside the service's other response types, so the two
// output paths stay one schema.
type MarginResponse struct {
	ActiveHours       float64  `json:"active_hours"`
	ActiveTempC       float64  `json:"active_temp_c"`
	SleepHours        float64  `json:"sleep_hours,omitempty"`
	SleepTempC        float64  `json:"sleep_temp_c,omitempty"`
	SleepVdd          float64  `json:"sleep_vdd,omitempty"`
	Alpha             float64  `json:"alpha,omitempty"`
	Years             float64  `json:"years"`
	Safety            float64  `json:"safety"`
	RequiredMarginPct float64  `json:"required_margin_pct"`
	BaselineMarginPct *float64 `json:"baseline_margin_pct,omitempty"`
	RelaxedPct        *float64 `json:"relaxed_pct,omitempty"`
	// LifetimeYears is present when a -margin was given; null-equivalent
	// omission means it was not requested, +Inf is encoded as -1.
	LifetimeYears *float64 `json:"lifetime_years,omitempty"`
}

// NewScheduleOutcomeBodies converts library outcomes to wire form,
// optionally stripping the (large) traces.
func NewScheduleOutcomeBodies(outs []selfheal.ScheduleOutcome, includeTrace bool) []ScheduleOutcomeBody {
	bodies := make([]ScheduleOutcomeBody, len(outs))
	for i, o := range outs {
		b := ScheduleOutcomeBody{
			Policy:             o.Policy,
			ActiveFraction:     o.ActiveFraction,
			PeakPct:            o.PeakPct,
			FinalPct:           o.FinalPct,
			MeanPct:            o.MeanPct,
			MarginProvisionPct: o.MarginProvisionPct,
		}
		if includeTrace {
			b.Trace = fleet.NewTracePoints(o.Trace)
		}
		bodies[i] = b
	}
	return bodies
}
