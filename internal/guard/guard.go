package guard

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"

	"selfheal/internal/engine"
	"selfheal/internal/faults"
	"selfheal/internal/fleet"
	"selfheal/internal/fpga"
	"selfheal/internal/obs"
)

// Deps wires the guard into the rest of the system. Engine is
// required; everything else is optional and degrades gracefully:
// without a Fleet the quarantine is tracked guard-side only (no
// journaled refusal surface), without a Spare remaps fail softly,
// without an Adversary there is no red team to apply.
type Deps struct {
	Engine    *engine.Engine
	Fleet     *fleet.Service
	Adversary *faults.Adversary
	Spare     *fpga.Chip
	Tracer    *obs.Tracer
	Log       *slog.Logger
}

// chipState is the blue team's book-keeping for one suspect chip.
// All fields are guarded by Guard.mu.
type chipState struct {
	streak      int
	quarantined bool
	deferred    bool
	onsetVth    float64 // Vth the epoch before the streak started
	peakVth     float64 // worst Vth observed while quarantined
	quarEpoch   uint64
	rejuvEpochs uint64 // accelerated-sleep epochs delivered so far
	remapped    bool
	rhythm      bool // the rejuvenation rhythm is installed in the engine
}

// Guard is the blue team: per-epoch aging-rate monitoring, automated
// quarantine/remap/rejuvenation, and the applier for the red team's
// decided actions. It hangs off engine.Config.OnEpoch, so everything
// here runs on the ticking goroutine after the tick lock is released;
// Guard.mu sits above the engine and fleet locks in the hierarchy
// (guard calls down, nothing calls back up into the guard).
type Guard struct {
	cfg Config
	d   Deps

	mu        sync.Mutex
	lastEpoch uint64
	states    map[string]*chipState
	victims   bool // adversary victim set picked
	adopted   bool // pre-existing fleet quarantines re-adopted
	ring      *obs.Ring[Alert]
	seq       uint64

	alertsTotal uint64
	remapsTotal uint64
	rejuvTotal  uint64
	releases    uint64
	recovered90 uint64 // releases that met the paper's ≥90% recovery bar
	quarCount   int
}

// New validates the config (zero fields take Defaults) and builds the
// guard. Wire the returned guard's OnEpoch into engine.Config.OnEpoch.
func New(d Deps, cfg Config) (*Guard, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if d.Engine == nil {
		return nil, fmt.Errorf("guard: an engine is required")
	}
	return &Guard{
		cfg:    cfg,
		d:      d,
		states: map[string]*chipState{},
		ring:   obs.NewRing[Alert](256),
	}, nil
}

// Config returns the default-filled configuration.
func (g *Guard) Config() Config {
	if g == nil {
		return Config{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cfg
}

// Reconfigure swaps the tuning at runtime (POST /v1/guard/config).
// Zero fields take Defaults; in-flight quarantines keep running and
// are judged against the new thresholds from the next epoch on.
func (g *Guard) Reconfigure(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	g.mu.Lock()
	g.cfg = cfg
	g.mu.Unlock()
	return nil
}

// OnEpoch is the per-epoch hook, fed the epoch's engine.Reduction:
// red-team actions are applied first (the attack plays this epoch),
// then the monitor judges each chip's Vth delta since r.Prev — the
// previous tick's snapshot, nil on the engine's first tick — against
// the fleet baseline, and the responder reacts. A nil guard is inert.
// Epochs must arrive in increasing order: serve's epoch hook drops the
// stale ones racing manual ticks produce before they get here.
func (g *Guard) OnEpoch(epoch uint64, r *engine.Reduction) {
	if g == nil || r == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.lastEpoch = epoch

	ctx := context.Background()
	g.adoptQuarantined(ctx, epoch, r.Snap)
	g.applyAdversary(ctx, epoch, r.Snap)
	g.observe(ctx, epoch, r)
}

// adoptQuarantined runs once, on the guard's first epoch: chips the
// fleet journal replayed as quarantined (a restart mid-episode) are
// re-adopted — book-keeping rebuilt, the healing rhythm re-installed —
// so a hard kill never strands a chip in quarantine. Their pre-attack
// baseline is unknown after a restart, so they release on the healthy
// bar (Vth back at or below the fleet's typical damage).
func (g *Guard) adoptQuarantined(ctx context.Context, epoch uint64, snap *engine.Snapshot) {
	if g.adopted {
		return
	}
	g.adopted = true
	if g.d.Fleet == nil {
		return
	}
	for _, id := range g.d.Fleet.QuarantinedIDs() {
		if st := g.states[id]; st != nil && st.quarantined {
			continue
		}
		cv, ok := snap.Chip(id)
		if !ok {
			continue
		}
		st := &chipState{quarantined: true, quarEpoch: epoch, peakVth: cv.VthShift}
		g.states[id] = st
		g.quarCount++
		g.installRhythm(ctx, epoch, id, st, "re-adopted after restart; healing rhythm re-installed")
	}
}

// applyAdversary picks victims on first sight, then applies the red
// team's decided actions through the engine's batch writes — gated,
// like any other mutation, on the quarantine: blocked moves are
// reported back to the adversary's counters instead of applied.
func (g *Guard) applyAdversary(ctx context.Context, epoch uint64, snap *engine.Snapshot) {
	adv := g.d.Adversary
	if adv == nil {
		return
	}
	if !g.victims {
		ids := g.candidates(snap)
		if len(ids) == 0 {
			return
		}
		picked := adv.PickVictims(ids)
		g.victims = true
		if g.d.Log != nil {
			g.d.Log.Warn("guard: adversary picked victims", "victims", picked, "epoch", epoch)
		}
	}
	acts := adv.Actions(epoch)
	if len(acts) == 0 {
		return
	}
	atk := adv.Config()
	var conds []engine.CondChange
	var schs []engine.SchedChange
	blocked := 0
	for _, act := range acts {
		if g.blocked(act.Chip) {
			blocked++
			continue
		}
		switch act.Kind {
		case faults.AdvStress:
			conds = append(conds, engine.CondChange{ID: act.Chip, Cond: engine.Cond{
				Phase: engine.PhaseStressName, TempC: atk.TempC, Vdd: atk.Vdd, Duty: atk.Duty,
			}})
		case faults.AdvCancel:
			schs = append(schs, engine.SchedChange{ID: act.Chip})
		}
	}
	adv.RecordBlocked(blocked)
	if len(conds) > 0 {
		g.d.Engine.SetConditionBatch(ctx, conds)
	}
	if len(schs) > 0 {
		g.d.Engine.SetScheduleBatch(ctx, schs)
	}
}

// candidates is the id set the adversary may target: fleet-backed
// chips mirrored into the engine when a fleet is wired (those carry
// the full quarantine lifecycle), every engine chip otherwise.
func (g *Guard) candidates(snap *engine.Snapshot) []string {
	if g.d.Fleet == nil {
		var ids []string
		for pi := range snap.Parts {
			ids = append(ids, snap.Parts[pi].IDs...)
		}
		return ids
	}
	var ids []string
	for _, c := range g.d.Fleet.List() {
		if snap.Has(c.ID) {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// holdable reports whether the guard may quarantine a chip: with a
// fleet wired only fleet chips, whose hold the fleet journals and
// enforces (the set candidates draws from); every chip otherwise. An
// outlier it may not hold keeps raising alerts.
func (g *Guard) holdable(id string) bool {
	if g.d.Fleet == nil {
		return true
	}
	_, ok := g.d.Fleet.Get(id)
	return ok
}

// blocked reports whether the quarantine refuses mutations on a chip.
func (g *Guard) blocked(id string) bool {
	if st := g.states[id]; st != nil && st.quarantined {
		return true
	}
	return g.d.Fleet != nil && g.d.Fleet.Quarantined(id)
}

// observe runs the monitor over one epoch: per-chip Vth deltas vs
// r.Prev judged against the reduction's robust fleet baseline (median
// + scaled MAD), outlier streaks, and the quarantine/rejuvenation/
// release lifecycle.
func (g *Guard) observe(ctx context.Context, epoch uint64, r *engine.Reduction) {
	judge := epoch > g.cfg.Warmup && r.Deltas > 0
	var threshold, damageBar float64
	if judge {
		threshold = r.DeltaMedian + g.cfg.SigmaK*1.4826*r.DeltaMAD
		if threshold < g.cfg.RateFloorV {
			threshold = g.cfg.RateFloorV
		}
		// The damage gate: only chips whose absolute Vth shift sits
		// above the fleet's typical wear are suspects. Without it, a
		// freshly-rejuvenated chip would convict itself forever — deep
		// recovery rolls its effective age back, so it re-ages at the
		// log law's steep early-life rate while it catches back up to
		// the fleet trajectory. Such a chip is *below* median damage,
		// so the gate lets it catch up; an attacked chip is far above.
		damageBar = r.VthMedian + g.cfg.RateFloorV
	}

	healthyBar := math.Inf(-1)
	if judge {
		healthyBar = damageBar
	}
	for pi := range r.Snap.Parts {
		pv, prevVth := &r.Snap.Parts[pi], r.PrevVth[pi]
		for i, id := range pv.IDs {
			vth := pv.Vth[i]
			st := g.states[id]
			if st != nil && st.quarantined {
				g.tendQuarantined(ctx, epoch, id, st, vth, pv.Phase[i] != 0, healthyBar)
				continue
			}
			prev := prevVth[i]
			if !judge || math.IsNaN(prev) {
				continue
			}
			if delta := vth - prev; delta > threshold && vth > damageBar {
				if st == nil {
					st = &chipState{}
					g.states[id] = st
				}
				if st.streak == 0 {
					st.onsetVth = prev
				}
				st.streak++
				g.alert(ctx, Alert{
					Epoch: epoch, Kind: AlertOutlier, Chip: id, DeltaV: delta,
					Detail: fmt.Sprintf("delta %.3g V/epoch over threshold %.3g (streak %d/%d)",
						delta, threshold, st.streak, g.cfg.Streak),
				})
				if st.streak >= g.cfg.Streak && g.holdable(id) {
					g.convict(ctx, epoch, id, st, vth, r.Prev.Chips)
				}
			} else if st != nil {
				st.streak = 0
				st.deferred = false
				if st.rejuvEpochs == 0 {
					delete(g.states, id)
				}
			}
		}
	}
}

// convict moves a chip from suspect to quarantined — unless the SLO
// budget (a share of the previous epoch's prevChips) is spent, in
// which case the conviction is deferred (streak held) and retried.
func (g *Guard) convict(ctx context.Context, epoch uint64, id string, st *chipState, vth float64, prevChips int) {
	budget := int(g.cfg.MaxQuarFrac * float64(prevChips))
	if budget < 1 {
		budget = 1
	}
	if g.quarCount >= budget {
		if !st.deferred {
			st.deferred = true
			g.alert(ctx, Alert{Epoch: epoch, Kind: AlertDeferred, Chip: id,
				Detail: fmt.Sprintf("quarantine budget %d spent", budget)})
		}
		return
	}
	st.quarantined = true
	st.deferred = false
	st.quarEpoch = epoch
	st.peakVth = vth
	st.rejuvEpochs = 0
	g.quarCount++

	reason := fmt.Sprintf("aging-rate outlier at epoch %d", epoch)
	if g.d.Fleet != nil {
		if _, err := g.d.Fleet.Quarantine(ctx, id, reason); err != nil && g.d.Log != nil {
			g.d.Log.Error("guard: fleet quarantine failed", "chip", id, "err", err)
		}
	}
	g.alert(ctx, Alert{Epoch: epoch, Kind: AlertQuarantined, Chip: id, Detail: reason})

	// Remap the victim's logic onto spare fabric while it heals.
	if g.d.Spare != nil {
		if m, err := g.d.Spare.MapCells(id, g.cfg.RemapCells); err != nil {
			g.alert(ctx, Alert{Epoch: epoch, Kind: AlertRemapFailed, Chip: id, Detail: err.Error()})
		} else {
			st.remapped = true
			g.remapsTotal++
			g.alert(ctx, Alert{Epoch: epoch, Kind: AlertRemapped, Chip: id,
				Detail: fmt.Sprintf("%d cells on %s, %d free left", len(m.Cells), m.Chip.ID(), g.d.Spare.FreeCells())})
		}
	} else {
		g.alert(ctx, Alert{Epoch: epoch, Kind: AlertRemapFailed, Chip: id, Detail: "no spare fabric wired"})
	}

	g.installRhythm(ctx, epoch, id, st, g.rhythmDetail())
}

// rhythmDetail describes the rejuvenation rhythm in its alert.
func (g *Guard) rhythmDetail() string {
	return fmt.Sprintf("%d sleep epochs at %gC/%gV per cycle", g.cfg.RejuvEpochs, g.cfg.RejuvTempC, g.cfg.RejuvVdd)
}

// installRhythm starts a quarantined chip's accelerated rejuvenation:
// first pin the chip back to the nominal stress condition (the attack
// clobbered temperature and rail — and the schedule's stress leg
// inherits whatever is current), then install the recovery rhythm: one
// nominal epoch, RejuvEpochs of hot negative-rail sleep, repeating
// until released. Only an install the engine accepted — journaled and
// applied — is reported; on failure the error is logged, st.rhythm
// stays false, and tendQuarantined retries on the chip's next epoch.
func (g *Guard) installRhythm(ctx context.Context, epoch uint64, id string, st *chipState, detail string) {
	err := batchErr(g.d.Engine.SetConditionBatch(ctx, []engine.CondChange{{ID: id, Cond: g.nominal()}}))
	if err == nil {
		err = batchErr(g.d.Engine.SetScheduleBatch(ctx, []engine.SchedChange{{ID: id, Schedule: engine.Schedule{
			StressEpochs: 1, SleepEpochs: g.cfg.RejuvEpochs,
			SleepTempC: g.cfg.RejuvTempC, SleepVdd: g.cfg.RejuvVdd,
		}}}))
	}
	if err != nil {
		if g.d.Log != nil {
			g.d.Log.Error("guard: rejuvenation install failed; retrying next epoch", "chip", id, "epoch", epoch, "err", err)
		}
		return
	}
	st.rhythm = true
	g.alert(ctx, Alert{Epoch: epoch, Kind: AlertRejuvenating, Chip: id, Detail: detail})
}

// nominal is the condition quarantine pins a chip to, and release
// returns it to.
func (g *Guard) nominal() engine.Cond {
	return engine.Cond{Phase: engine.PhaseStressName, TempC: g.cfg.NominalTempC, Vdd: g.cfg.NominalVdd, Duty: 1}
}

// batchErr folds an engine batch call's error and its per-item results
// into the first failure.
func batchErr(res []engine.RegResult, err error) error {
	if err != nil {
		return err
	}
	for _, r := range res {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// tendQuarantined advances one quarantined chip: tracks its Vth peak,
// counts delivered rejuvenation epochs, and releases it once a
// recovery bar is met — either RecoverFrac of the attack excess
// recovered, or (for adopted chips whose pre-attack baseline is
// unknown) Vth back at or below the fleet's typical damage.
func (g *Guard) tendQuarantined(ctx context.Context, epoch uint64, id string, st *chipState, vth float64, sleeping bool, healthyBar float64) {
	if !st.rhythm && epoch > st.quarEpoch {
		g.installRhythm(ctx, epoch, id, st, g.rhythmDetail())
	}
	if vth > st.peakVth {
		st.peakVth = vth
	}
	if sleeping {
		st.rejuvEpochs++
		g.rejuvTotal++
	}
	excess := st.peakVth - st.onsetVth
	recovered := st.peakVth - vth
	if st.rejuvEpochs < g.cfg.RejuvEpochs {
		return
	}
	recoveredEnough := excess > 0 && recovered >= g.cfg.RecoverFrac*excess
	if !recoveredEnough && vth > healthyBar {
		return
	}
	if excess <= 0 {
		excess, recovered = st.peakVth, st.peakVth-vth
	}

	// Recovered: cancel the rejuvenation rhythm, pin the nominal
	// condition, lift the quarantine — but only once the engine took
	// both changes; until then the chip stays held and the release is
	// retried on its next epoch.
	err := batchErr(g.d.Engine.SetScheduleBatch(ctx, []engine.SchedChange{{ID: id}}))
	if err == nil {
		err = batchErr(g.d.Engine.SetConditionBatch(ctx, []engine.CondChange{{ID: id, Cond: g.nominal()}}))
	}
	if err != nil {
		if g.d.Log != nil {
			g.d.Log.Error("guard: release failed; retrying next epoch", "chip", id, "epoch", epoch, "err", err)
		}
		return
	}
	if g.d.Fleet != nil {
		if _, err := g.d.Fleet.Release(ctx, id); err != nil && g.d.Log != nil {
			g.d.Log.Error("guard: fleet release failed", "chip", id, "err", err)
		}
	}
	st.quarantined = false
	st.streak = 0
	g.quarCount--
	g.releases++
	// The paper's headline — ≥90% of the stress-induced margin loss
	// recovered — tracked per release so the SLO monitor can hold the
	// fleet to it regardless of the configured RecoverFrac.
	if recovered >= 0.9*excess {
		g.recovered90++
	}
	g.alert(ctx, Alert{Epoch: epoch, Kind: AlertReleased, Chip: id,
		Detail: fmt.Sprintf("recovered %.0f%% of %.3g V excess in %d rejuvenation epochs",
			100*recovered/excess, excess, st.rejuvEpochs)})
	delete(g.states, id)
}

// alert records one event in the ring, the counters, the tracer (as a
// guard.alert span) and the log. Callers hold g.mu.
func (g *Guard) alert(ctx context.Context, a Alert) {
	g.seq++
	a.Seq = g.seq
	g.ring.Push(a)
	g.alertsTotal++
	if g.d.Tracer != nil {
		_, sp := g.d.Tracer.Start(ctx, "guard.alert")
		sp.Annotate(
			obs.String("kind", string(a.Kind)),
			obs.String("chip", a.Chip),
			obs.String("epoch", fmt.Sprintf("%d", a.Epoch)),
			obs.String("detail", a.Detail),
		)
		sp.End()
	}
	if g.d.Log != nil {
		g.d.Log.Warn("guard: "+string(a.Kind), "chip", a.Chip, "epoch", a.Epoch, "detail", a.Detail)
	}
}

// Metrics is the guard's Prometheus-facing counter set.
type Metrics struct {
	AlertsTotal             uint64 `json:"alerts_total"`
	QuarantinedChips        int    `json:"quarantined_chips"`
	RemapsTotal             uint64 `json:"remaps_total"`
	RejuvenationEpochsTotal uint64 `json:"rejuvenation_epochs_total"`
	ReleasesTotal           uint64 `json:"releases_total"`
	// Recovered90Total counts releases that recovered ≥90% of the
	// attack's margin excess — the paper's recovery headline, consumed
	// by the serve layer's margin-recovery SLO.
	Recovered90Total uint64 `json:"recovered90_total"`
	// SpareFreeCells is -1 when no spare fabric is wired.
	SpareFreeCells int `json:"spare_free_cells"`
}

// MetricsSnapshot reads the counters. A nil guard reports zeros.
func (g *Guard) MetricsSnapshot() Metrics {
	if g == nil {
		return Metrics{SpareFreeCells: -1}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	m := Metrics{
		AlertsTotal:             g.alertsTotal,
		QuarantinedChips:        g.quarCount,
		RemapsTotal:             g.remapsTotal,
		RejuvenationEpochsTotal: g.rejuvTotal,
		ReleasesTotal:           g.releases,
		Recovered90Total:        g.recovered90,
		SpareFreeCells:          -1,
	}
	if g.d.Spare != nil {
		m.SpareFreeCells = g.d.Spare.FreeCells()
	}
	return m
}

// ChipStatus is one quarantined chip's lifecycle position.
type ChipStatus struct {
	Chip        string  `json:"chip"`
	QuarEpoch   uint64  `json:"quarantined_epoch"`
	OnsetVth    float64 `json:"onset_vth_v"`
	PeakVth     float64 `json:"peak_vth_v"`
	RejuvEpochs uint64  `json:"rejuvenation_epochs"`
	Remapped    bool    `json:"remapped"`
}

// AdversaryStatus reports the red team's configuration and counters.
type AdversaryStatus struct {
	Spec    string                `json:"spec"`
	Victims []string              `json:"victims"`
	Stats   faults.AdversaryStats `json:"stats"`
}

// Status is the /v1/guard view.
type Status struct {
	Epoch       uint64           `json:"epoch"`
	Spec        string           `json:"spec"`
	Config      Config           `json:"config"`
	Quarantined []ChipStatus     `json:"quarantined"`
	Metrics     Metrics          `json:"metrics"`
	Adversary   *AdversaryStatus `json:"adversary,omitempty"`
}

// StatusSnapshot assembles the guard's public state.
func (g *Guard) StatusSnapshot() Status {
	if g == nil {
		return Status{}
	}
	m := g.MetricsSnapshot()
	g.mu.Lock()
	st := Status{Epoch: g.lastEpoch, Spec: g.cfg.String(), Config: g.cfg, Metrics: m}
	for id, cs := range g.states {
		if !cs.quarantined {
			continue
		}
		st.Quarantined = append(st.Quarantined, ChipStatus{
			Chip: id, QuarEpoch: cs.quarEpoch, OnsetVth: cs.onsetVth, PeakVth: cs.peakVth,
			RejuvEpochs: cs.rejuvEpochs, Remapped: cs.remapped,
		})
	}
	g.mu.Unlock()
	sort.Slice(st.Quarantined, func(i, j int) bool { return st.Quarantined[i].Chip < st.Quarantined[j].Chip })
	if adv := g.d.Adversary; adv != nil {
		st.Adversary = &AdversaryStatus{
			Spec:    adv.Config().String(),
			Victims: adv.Victims(),
			Stats:   adv.Stats(),
		}
	}
	return st
}

// Alerts returns the retained alerts, newest first (limit 0 = all).
func (g *Guard) Alerts(limit int) []Alert {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ring.Newest(limit)
}
