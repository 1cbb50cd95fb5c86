package serve

import (
	"fmt"
	"sync"
	"time"

	"selfheal/internal/obs"
	"selfheal/internal/obs/tsdb"
)

// SLOKind names one of the standing service-level objectives the
// rolling burn-rate monitor evaluates every epoch over the telemetry
// TSDB.
type SLOKind string

const (
	// SLOMutationAvailability: the fraction of mutating requests that
	// fail with a 5xx inside the window must stay within the error
	// budget.
	SLOMutationAvailability SLOKind = "mutation_availability"
	// SLOEpochLag: the aging engine must keep up with its wall-clock
	// tick schedule — at most a budgeted fraction of the window's
	// epochs may start late by more than the lag budget.
	SLOEpochLag SLOKind = "epoch_lag"
	// SLOMarginRecovery is the paper's headline held as a standing
	// objective: of the chips the guard released from quarantine inside
	// the window, at least 90% must have recovered ≥90% of their
	// stress-induced margin excess.
	SLOMarginRecovery SLOKind = "margin_recovery"
)

// sloKinds is the evaluation (and exposition) order.
var sloKinds = []SLOKind{SLOMutationAvailability, SLOEpochLag, SLOMarginRecovery}

// SLOStatus is one objective's latest evaluation. Burn is the
// normalized burn rate: consumed budget over allowed budget, so 1.0 is
// the breach threshold regardless of the objective's native units.
type SLOStatus struct {
	SLO    SLOKind `json:"slo"`
	OK     bool    `json:"ok"`
	Burn   float64 `json:"burn_rate"`
	Epoch  uint64  `json:"epoch"`
	Window int     `json:"window_epochs"`
	Detail string  `json:"detail,omitempty"`
}

// SLOAlert is one typed breach/recovery event in the monitor's alert
// ring.
type SLOAlert struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Epoch  uint64    `json:"epoch"`
	SLO    SLOKind   `json:"slo"`
	Kind   string    `json:"kind"` // "breach" | "recovered"
	Burn   float64   `json:"burn_rate"`
	Detail string    `json:"detail"`
}

// sloConfig tunes the monitor; zero fields take the defaults below.
type sloConfig struct {
	Window        int     // rolling window in epochs (default 20)
	AvailBudget   float64 // tolerated 5xx fraction of mutations (default 0.05)
	LagBudget     float64 // tolerated per-epoch start lag in seconds (default 1)
	LagFracBudget float64 // tolerated fraction of late epochs (default 0.25)
}

// sloAlertCap is how many SLO alerts the monitor retains.
const sloAlertCap = 128

func (c sloConfig) withDefaults() sloConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.AvailBudget <= 0 {
		c.AvailBudget = 0.05
	}
	if c.LagBudget <= 0 {
		c.LagBudget = 1
	}
	if c.LagFracBudget <= 0 {
		c.LagFracBudget = 0.25
	}
	return c
}

// recoverTarget is the paper's recovery bar: a release counts toward
// the margin-recovery SLO only if ≥90% of the excess was recovered,
// and ≥90% of the window's releases must count.
const recoverTarget = 0.9

// sloMonitor evaluates the objectives after every recorded epoch. It
// reads only the TSDB (no locks into other layers) and owns its own
// mutex — a leaf in the lock hierarchy, like the guard's alert ring.
type sloMonitor struct {
	cfg sloConfig

	mu          sync.Mutex
	status      map[SLOKind]SLOStatus
	ring        *obs.Ring[SLOAlert]
	seq         uint64
	alertsTotal uint64
	breaches    uint64
}

func newSLOMonitor(cfg sloConfig) *sloMonitor {
	cfg = cfg.withDefaults()
	return &sloMonitor{
		cfg:    cfg,
		status: make(map[SLOKind]SLOStatus, len(sloKinds)),
		ring:   obs.NewRing[SLOAlert](sloAlertCap),
	}
}

// evaluate runs all objectives against db's rolling window, records
// breach/recovery transitions in the alert ring, and appends the
// slo_* series back into db (so burn rates trend like any other
// telemetry). Called from the per-epoch recorder.
func (m *sloMonitor) evaluate(epoch uint64, db *tsdb.DB) {
	statuses := []SLOStatus{
		m.evalAvailability(epoch, db),
		m.evalEpochLag(epoch, db),
		m.evalMarginRecovery(epoch, db),
	}
	m.mu.Lock()
	for _, st := range statuses {
		prev, seen := m.status[st.SLO]
		if seen && prev.OK && !st.OK {
			m.push(SLOAlert{Epoch: epoch, SLO: st.SLO, Kind: "breach", Burn: st.Burn, Detail: st.Detail})
			m.breaches++
		}
		if seen && !prev.OK && st.OK {
			m.push(SLOAlert{Epoch: epoch, SLO: st.SLO, Kind: "recovered", Burn: st.Burn, Detail: st.Detail})
		}
		m.status[st.SLO] = st
	}
	m.mu.Unlock()
	for _, st := range statuses {
		ok := 0.0
		if st.OK {
			ok = 1
		}
		db.Append("slo_burn_"+string(st.SLO), epoch, st.Burn)
		db.Append("slo_ok_"+string(st.SLO), epoch, ok)
	}
}

// push appends one alert to the ring. Callers hold m.mu.
func (m *sloMonitor) push(a SLOAlert) {
	m.seq++
	a.Seq = m.seq
	a.Time = time.Now()
	m.alertsTotal++
	m.ring.Push(a)
}

// evalAvailability: 5xx fraction of mutating requests over the window.
func (m *sloMonitor) evalAvailability(epoch uint64, db *tsdb.DB) SLOStatus {
	st := SLOStatus{SLO: SLOMutationAvailability, OK: true, Epoch: epoch, Window: m.cfg.Window}
	var total, errs float64
	for _, sm := range db.Select("mutations_per_epoch", tsdb.Query{Limit: m.cfg.Window}) {
		total += sm.Value
	}
	for _, sm := range db.Select("mutation_errors_per_epoch", tsdb.Query{Limit: m.cfg.Window}) {
		errs += sm.Value
	}
	if total > 0 {
		ratio := errs / total
		st.Burn = ratio / m.cfg.AvailBudget
		st.OK = st.Burn <= 1
		st.Detail = fmt.Sprintf("%.0f of %.0f mutations failed (budget %.0f%%)", errs, total, 100*m.cfg.AvailBudget)
	} else {
		st.Detail = "no mutations in window"
	}
	return st
}

// evalEpochLag: fraction of the window's epochs that started more than
// LagBudget seconds late.
func (m *sloMonitor) evalEpochLag(epoch uint64, db *tsdb.DB) SLOStatus {
	st := SLOStatus{SLO: SLOEpochLag, OK: true, Epoch: epoch, Window: m.cfg.Window}
	lags := db.Select("epoch_lag_seconds", tsdb.Query{Limit: m.cfg.Window})
	if len(lags) == 0 {
		st.Detail = "no epochs in window"
		return st
	}
	late := 0
	for _, sm := range lags {
		if sm.Value > m.cfg.LagBudget {
			late++
		}
	}
	frac := float64(late) / float64(len(lags))
	st.Burn = frac / m.cfg.LagFracBudget
	st.OK = st.Burn <= 1
	st.Detail = fmt.Sprintf("%d of %d epochs started > %gs late (budget %.0f%%)",
		late, len(lags), m.cfg.LagBudget, 100*m.cfg.LagFracBudget)
	return st
}

// evalMarginRecovery: of the guard releases inside the window, the
// fraction that met the ≥90% recovery bar must itself be ≥90%. The
// inputs are the cumulative guard counters recorded per epoch, so the
// window delta is last-sample minus first-sample.
func (m *sloMonitor) evalMarginRecovery(epoch uint64, db *tsdb.DB) SLOStatus {
	st := SLOStatus{SLO: SLOMarginRecovery, OK: true, Epoch: epoch, Window: m.cfg.Window}
	delta := func(name string) float64 {
		s := db.Select(name, tsdb.Query{Limit: m.cfg.Window})
		if len(s) == 0 {
			return 0
		}
		return s[len(s)-1].Value - s[0].Value
	}
	releases := delta("guard_releases_total")
	if releases <= 0 {
		st.Detail = "no quarantine releases in window"
		return st
	}
	good := delta("guard_recovered90_total")
	ratio := good / releases
	// Burn normalizes the shortfall: ratio at the 90% target burns
	// exactly the budget (1.0); every release recovering ≥90% burns 0.
	st.Burn = (1 - ratio) / (1 - recoverTarget)
	st.OK = ratio >= recoverTarget
	st.Detail = fmt.Sprintf("%.0f of %.0f releases recovered >=90%% of margin excess", good, releases)
	return st
}

// snapshot returns the latest per-objective statuses (evaluation
// order) and the newest alerts (newest first, capped at limit).
func (m *sloMonitor) snapshot(limit int) ([]SLOStatus, []SLOAlert) {
	m.mu.Lock()
	defer m.mu.Unlock()
	statuses := make([]SLOStatus, 0, len(sloKinds))
	for _, k := range sloKinds {
		if st, ok := m.status[k]; ok {
			statuses = append(statuses, st)
		}
	}
	return statuses, m.ring.Newest(limit)
}

// counters reports lifetime alert totals.
func (m *sloMonitor) counters() (alerts, breaches uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alertsTotal, m.breaches
}
