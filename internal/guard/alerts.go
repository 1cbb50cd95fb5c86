package guard

// AlertKind classifies one blue-team event.
type AlertKind string

const (
	// AlertOutlier: a chip's aging rate crossed the detection
	// threshold this epoch (streak still building).
	AlertOutlier AlertKind = "aging-rate-outlier"
	// AlertQuarantined: the chip was convicted and quarantined.
	AlertQuarantined AlertKind = "quarantined"
	// AlertRemapped: the chip's logic was placed on spare fabric.
	AlertRemapped AlertKind = "remapped"
	// AlertRemapFailed: no spare capacity (or no spare chip) was
	// available for the remap; quarantine and rejuvenation proceed.
	AlertRemapFailed AlertKind = "remap-failed"
	// AlertRejuvenating: an accelerated-rejuvenation schedule was
	// installed for the chip.
	AlertRejuvenating AlertKind = "rejuvenation-scheduled"
	// AlertDeferred: conviction upheld but the quarantine budget
	// (max_quarantine_frac) is spent; retried when a slot frees.
	AlertDeferred AlertKind = "budget-deferred"
	// AlertReleased: the chip recovered past the release bar and
	// rejoined the fleet at the nominal condition.
	AlertReleased AlertKind = "released"
)

// Alert is one typed blue-team event, kept in a bounded ring for
// /v1/guard/alerts and mirrored into the tracer as a span.
type Alert struct {
	Seq    uint64    `json:"seq"`
	Epoch  uint64    `json:"epoch"`
	Kind   AlertKind `json:"kind"`
	Chip   string    `json:"chip"`
	Detail string    `json:"detail,omitempty"`
	// DeltaV is the per-epoch Vth delta that triggered detection
	// alerts (zero for lifecycle alerts).
	DeltaV float64 `json:"delta_v,omitempty"`
}
