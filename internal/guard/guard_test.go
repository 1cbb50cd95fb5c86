package guard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"selfheal/internal/engine"
	"selfheal/internal/faults"
	"selfheal/internal/fleet"
	"selfheal/internal/fpga"
	"selfheal/internal/rng"
	"selfheal/internal/store"
)

func TestConfigParseStringRoundTrip(t *testing.T) {
	if cfg, err := Parse(""); err != nil || cfg != Defaults {
		t.Fatalf("empty spec = (%+v, %v), want Defaults", cfg, err)
	}
	if Defaults.String() != "" {
		t.Fatalf("Defaults.String() = %q, want empty", Defaults.String())
	}
	for _, spec := range []string{
		"sigma=6",
		"sigma=3,rate_floor=1e-3,streak=3",
		"warmup=5,rejuv_epochs=8,rejuv_temp_c=105,rejuv_vdd=-0.25",
		"recover_frac=0.8,max_quarantine_frac=0.1,remap_cells=4",
		"nominal_temp_c=85,nominal_vdd=1.1",
	} {
		cfg, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		again, err := Parse(cfg.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", cfg.String(), spec, err)
		}
		if again != cfg {
			t.Fatalf("round trip %q: %+v != %+v", spec, again, cfg)
		}
	}
	for _, bad := range []string{
		"sigma=-1", "streak=0", "rejuv_vdd=0.3", "recover_frac=0",
		"recover_frac=1.5", "max_quarantine_frac=2", "remap_cells=0",
		"nominal_vdd=0", "nope=1", "sigma",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// guardRig is an engine + guard pair ticking on the caller's goroutine.
type guardRig struct {
	eng   *engine.Engine
	guard *Guard
}

func newGuardRig(t *testing.T, cfg Config, d Deps, chips int) *guardRig {
	t.Helper()
	return newGuardRigOn(t, store.NewMem[any](), nil, cfg, d, chips)
}

// newGuardRigOn is newGuardRig over the journal j, calling after (when
// set) with the epoch once each epoch's guard hook returns.
func newGuardRigOn(t *testing.T, j engine.Journal, after func(epoch uint64), cfg Config, d Deps, chips int) *guardRig {
	t.Helper()
	ctx := context.Background()
	var g *Guard
	var rd engine.Reducer
	eng, err := engine.New(j, engine.Config{
		EpochHours: 0.5,
		Workers:    1,
		OnEpoch: func(epoch uint64, snap, prev *engine.Snapshot) {
			g.OnEpoch(epoch, rd.Reduce(snap, prev))
			if after != nil {
				after(epoch)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	d.Engine = eng
	g, err = New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]engine.Spec, chips)
	for i := range specs {
		specs[i] = engine.Spec{ID: fmt.Sprintf("g%03d", i), TempC: 80, Vdd: 1.2, Duty: 1}
	}
	res, err := eng.RegisterBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("register %s: %v", r.ID, r.Err)
		}
	}
	return &guardRig{eng: eng, guard: g}
}

func (r *guardRig) tick(n int) {
	for i := 0; i < n; i++ {
		r.eng.Tick(context.Background())
	}
}

func alertsByKind(alerts []Alert) map[AlertKind][]Alert {
	out := map[AlertKind][]Alert{}
	for _, a := range alerts {
		out[a.Kind] = append(out[a.Kind], a)
	}
	return out
}

// TestGuardClosedLoop runs the whole arena in miniature: a seeded
// adversary opens a dc-stress attack on two victims, the monitor
// convicts them from the fleet-relative aging rate, the responder
// quarantines, remaps onto spare fabric and schedules accelerated
// rejuvenation, and once the excess is recovered the victims rejoin
// the fleet at the nominal condition.
func TestGuardClosedLoop(t *testing.T) {
	adv, err := faults.NewAdversary(faults.AdversaryConfig{Seed: 42, Victims: 2, Start: 4, DenyP: 1, CancelP: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sp := fpga.DefaultParams()
	sp.Rows, sp.Cols = 8, 8
	spare, err := fpga.NewChip("spare-0", sp, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rig := newGuardRig(t, Config{}, Deps{Adversary: adv, Spare: spare}, 16)
	rig.tick(40)

	victims := adv.Victims()
	if len(victims) != 2 {
		t.Fatalf("victims = %v", victims)
	}
	byKind := alertsByKind(rig.guard.Alerts(0))
	quarantined := map[string]bool{}
	for _, a := range byKind[AlertQuarantined] {
		quarantined[a.Chip] = true
	}
	for _, v := range victims {
		if !quarantined[v] {
			t.Fatalf("victim %s never quarantined; alerts: %+v", v, byKind[AlertQuarantined])
		}
	}
	// Only victims are ever convicted: the 14 bystander chips age at
	// the fleet baseline and must not trip the detector.
	for chip := range quarantined {
		if chip != victims[0] && chip != victims[1] {
			t.Fatalf("bystander %s quarantined", chip)
		}
	}
	if len(byKind[AlertRemapped]) == 0 {
		t.Fatal("no remap alerts despite spare fabric")
	}
	if len(byKind[AlertRejuvenating]) == 0 {
		t.Fatal("no rejuvenation alerts")
	}
	released := map[string]bool{}
	for _, a := range byKind[AlertReleased] {
		released[a.Chip] = true
	}
	for _, v := range victims {
		if !released[v] {
			t.Fatalf("victim %s never released; metrics %+v", v, rig.guard.MetricsSnapshot())
		}
	}

	// The quarantine actually blunted the attack: with deny_p=1 the
	// adversary keeps re-asserting stress every epoch, and every move
	// after conviction must have been refused.
	if st := adv.Stats(); st.Blocked == 0 {
		t.Fatalf("no adversary actions blocked: %+v", st)
	}

	m := rig.guard.MetricsSnapshot()
	if m.AlertsTotal == 0 || m.RemapsTotal == 0 || m.RejuvenationEpochsTotal == 0 || m.ReleasesTotal == 0 {
		t.Fatalf("metrics missing activity: %+v", m)
	}
	if m.SpareFreeCells != 64-int(m.RemapsTotal)*Defaults.RemapCells {
		t.Fatalf("spare accounting: %+v", m)
	}

	status := rig.guard.StatusSnapshot()
	if status.Adversary == nil || status.Adversary.Stats.StressActs == 0 {
		t.Fatalf("status adversary view: %+v", status.Adversary)
	}
}

// TestGuardQuarantineBudget pins the SLO: with a budget of one chip,
// the second conviction is deferred (typed alert) and only lands
// after the first victim is released.
func TestGuardQuarantineBudget(t *testing.T) {
	adv, err := faults.NewAdversary(faults.AdversaryConfig{Seed: 7, Victims: 2, Start: 4, DenyP: 1})
	if err != nil {
		t.Fatal(err)
	}
	rig := newGuardRig(t, Config{MaxQuarFrac: 0.01}, Deps{Adversary: adv}, 12)
	rig.tick(60)

	byKind := alertsByKind(rig.guard.Alerts(0))
	if len(byKind[AlertDeferred]) == 0 {
		t.Fatalf("no budget-deferred alert; kinds: %v", len(byKind))
	}
	quarantined := map[string]bool{}
	for _, a := range byKind[AlertQuarantined] {
		quarantined[a.Chip] = true
	}
	for _, v := range adv.Victims() {
		if !quarantined[v] {
			t.Fatalf("victim %s never quarantined under budget; %+v", v, rig.guard.MetricsSnapshot())
		}
	}
	// The budget was never exceeded: quarantined alerts are serialized
	// one at a time, so at no point do two overlap without a release
	// in between. Releases ≥ 1 proves the slot recycled.
	if m := rig.guard.MetricsSnapshot(); m.ReleasesTotal == 0 || m.QuarantinedChips > 1 {
		t.Fatalf("budget not enforced: %+v", m)
	}
}

// TestGuardRestartAdoption simulates the hard-kill path: the fleet
// journal replayed a chip as quarantined, but the new guard instance
// has no memory of the episode. The guard must re-adopt the chip on
// its first epoch — healing rhythm re-installed — and release it on
// the healthy bar (its pre-attack baseline is unknowable after a
// restart), never stranding it in quarantine.
func TestGuardRestartAdoption(t *testing.T) {
	ctx := context.Background()
	fl, err := fleet.NewService(store.NewMem[*fleet.ChipEntry]())
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	rig := newGuardRig(t, Config{}, Deps{Fleet: fl}, 8)
	for i := 0; i < 8; i++ {
		if _, err := fl.Create(ctx, fleet.CreateSpec{ID: fmt.Sprintf("g%03d", i), Seed: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// The pre-restart state: the old guard quarantined g003, then the
	// process died. Replay restores the fleet-side quarantine only.
	if _, err := fl.Quarantine(ctx, "g003", "aging-rate outlier at epoch 9"); err != nil {
		t.Fatal(err)
	}

	rig.tick(1)
	adopted := false
	for _, a := range rig.guard.Alerts(0) {
		if a.Kind == AlertRejuvenating && a.Chip == "g003" {
			adopted = true
		}
	}
	if !adopted {
		t.Fatalf("no adoption alert; alerts %+v", rig.guard.Alerts(0))
	}
	st := rig.guard.StatusSnapshot()
	if len(st.Quarantined) != 1 || st.Quarantined[0].Chip != "g003" {
		t.Fatalf("adopted status = %+v", st.Quarantined)
	}

	rig.tick(20)
	if ids := fl.QuarantinedIDs(); len(ids) != 0 {
		t.Fatalf("adopted chip stranded in quarantine: %v", ids)
	}
	if m := rig.guard.MetricsSnapshot(); m.ReleasesTotal != 1 || m.QuarantinedChips != 0 {
		t.Fatalf("adoption lifecycle metrics: %+v", m)
	}
}

// TestGuardFleetQuarantine wires a real fleet service in: conviction
// must quarantine the journaled fleet entry (mutations refuse with
// QuarantinedError, reads serve), and release must lift it.
func TestGuardFleetQuarantine(t *testing.T) {
	ctx := context.Background()
	fl, err := fleet.NewService(store.NewMem[*fleet.ChipEntry]())
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	// One-shot attack (no deny/cancel spam): once the victim is
	// released it must *stay* released, which the final assertions pin.
	adv, advErr := faults.NewAdversary(faults.AdversaryConfig{Seed: 3, Victims: 1, Start: 4})
	if advErr != nil {
		t.Fatal(advErr)
	}
	rig := newGuardRig(t, Config{}, Deps{Adversary: adv, Fleet: fl}, 0)
	// Mirror fleet chips into the engine under the same ids, as serve
	// does; guard candidates are the intersection.
	var specs []engine.Spec
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("f%02d", i)
		if _, err := fl.Create(ctx, fleet.CreateSpec{ID: id, Seed: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, engine.Spec{ID: id, TempC: 80, Vdd: 1.2, Duty: 1})
	}
	if res, err := rig.eng.RegisterBatch(ctx, specs); err != nil {
		t.Fatal(err)
	} else {
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}

	// Tick until the victim is quarantined, probing the fleet surface
	// mid-quarantine.
	var victim string
	for i := 0; i < 30 && victim == ""; i++ {
		rig.tick(1)
		if ids := fl.QuarantinedIDs(); len(ids) > 0 {
			victim = ids[0]
		}
	}
	if victim == "" {
		t.Fatalf("no fleet quarantine after 30 epochs; alerts %+v", rig.guard.Alerts(0))
	}
	var qe fleet.QuarantinedError
	if _, err := fl.Stress(ctx, victim, fleet.PhaseRequest{TempC: 85, Vdd: 1.2, Hours: 1}); !errors.As(err, &qe) {
		t.Fatalf("stress on quarantined fleet chip = %v", err)
	}
	if _, ok := fl.Get(victim); !ok {
		t.Fatal("read on quarantined chip failed")
	}

	rig.tick(30)
	if ids := fl.QuarantinedIDs(); len(ids) != 0 {
		t.Fatalf("still quarantined after recovery window: %v", ids)
	}
	if _, err := fl.Stress(ctx, victim, fleet.PhaseRequest{TempC: 85, Vdd: 1.2, Hours: 1}); err != nil {
		t.Fatalf("stress after release: %v", err)
	}
}

// TestGuardLateRegistrationDelta: a chip registered between ticks has
// no previous reading on its first hooked epoch, so it cannot be
// judged there; on its second it has a delta, and a hot newcomer is
// flagged with exactly the Vth step between the two epochs.
func TestGuardLateRegistrationDelta(t *testing.T) {
	ctx := context.Background()
	rig := newGuardRig(t, Config{}, Deps{}, 16)
	rig.tick(4)
	if err := rig.eng.Register(ctx, engine.Spec{ID: "late", TempC: 110, Vdd: 1.32, Duty: 1}); err != nil {
		t.Fatal(err)
	}
	outliers := func() []Alert {
		var out []Alert
		for _, a := range rig.guard.Alerts(0) {
			if a.Kind == AlertOutlier && a.Chip == "late" {
				out = append(out, a)
			}
		}
		return out
	}
	rig.tick(1)
	first, _ := rig.eng.Snapshot().Chip("late")
	if got := outliers(); len(got) != 0 {
		t.Fatalf("newcomer judged on its first hooked epoch: %+v", got)
	}
	rig.tick(1)
	second, _ := rig.eng.Snapshot().Chip("late")
	got := outliers()
	if len(got) != 1 || got[0].Epoch != second.Epoch {
		t.Fatalf("second hooked epoch %d: outlier alerts %+v, want one", second.Epoch, got)
	}
	if want := second.VthShift - first.VthShift; got[0].DeltaV != want {
		t.Fatalf("newcomer delta %v, want %v", got[0].DeltaV, want)
	}
}

// outageJournal is a durable engine journal whose disk fails for one
// epoch: from the first record trip matches, every Commit is refused
// until recover runs after that epoch's guard hook returns.
type outageJournal struct {
	trip     func(store.Record) bool
	down     bool
	tripped  bool
	refused  int
	outEpoch uint64 // the epoch the disk was down in
}

func (j *outageJournal) Commit(_ context.Context, rec store.Record) error {
	if !j.tripped && j.trip(rec) {
		j.tripped, j.down = true, true
	}
	if j.down {
		j.refused++
		return errors.New("disk down")
	}
	return nil
}

// CommitBatch commits recs one by one, refusing the batch at the
// first record Commit refuses.
func (j *outageJournal) CommitBatch(ctx context.Context, recs []store.Record) error {
	for _, rec := range recs {
		if err := j.Commit(ctx, rec); err != nil {
			return err
		}
	}
	return nil
}

func (j *outageJournal) Replay() []store.Record { return nil }
func (j *outageJournal) Durable() bool          { return true }

func (j *outageJournal) recover(epoch uint64) {
	if j.down {
		j.down, j.outEpoch = false, epoch
	}
}

// outageRig runs a one-shot attack on one of 16 chips over j for 60
// epochs and returns the victim's first alert epoch of each kind.
func outageRig(t *testing.T, j *outageJournal) (*guardRig, string, map[AlertKind]uint64) {
	t.Helper()
	adv, err := faults.NewAdversary(faults.AdversaryConfig{Seed: 3, Victims: 1, Start: 4})
	if err != nil {
		t.Fatal(err)
	}
	rig := newGuardRigOn(t, j, j.recover, Config{}, Deps{Adversary: adv}, 16)
	rig.tick(60)
	if j.refused == 0 {
		t.Fatal("the journal never refused a commit: the outage never happened")
	}
	victim := adv.Victims()[0]
	first := map[AlertKind]uint64{}
	for _, a := range rig.guard.Alerts(0) {
		if e, ok := first[a.Kind]; a.Chip == victim && (!ok || a.Epoch < e) {
			first[a.Kind] = a.Epoch
		}
	}
	return rig, victim, first
}

// TestGuardRetriesRejuvenationInstall: when the engine refuses the
// conviction's rejuvenation install (its journal is down that epoch),
// the guard must not report the rhythm as scheduled, and must install
// it on the chip's next epoch once the disk is back — so the chip heals
// and is released instead of holding a budget slot with zero
// rejuvenation epochs until the next restart.
func TestGuardRetriesRejuvenationInstall(t *testing.T) {
	// The outage opens at the conviction's nominal-condition pin, the
	// first half of the install.
	j := &outageJournal{trip: func(rec store.Record) bool {
		return rec.Op == store.OpEngineSet && rec.TempC == Defaults.NominalTempC
	}}
	rig, victim, first := outageRig(t, j)
	quar, ok := first[AlertQuarantined]
	if !ok || quar != j.outEpoch {
		t.Fatalf("victim %s not quarantined in the outage epoch %d; alerts %+v", victim, j.outEpoch, rig.guard.Alerts(0))
	}
	if rejuv := first[AlertRejuvenating]; rejuv <= quar {
		t.Fatalf("rejuvenation reported at epoch %d although the install at conviction (epoch %d) was refused", rejuv, quar)
	}
	m := rig.guard.MetricsSnapshot()
	if _, released := first[AlertReleased]; !released || m.QuarantinedChips != 0 || m.RejuvenationEpochsTotal == 0 {
		t.Fatalf("victim stranded in quarantine after the outage: metrics %+v", m)
	}
}

// TestGuardRetriesRelease: when the engine refuses a recovered chip's
// release (the rhythm's cancellation), the guard must keep holding the
// chip and release it on a later epoch, once the engine has cancelled
// the rhythm — not release it with the hot negative-rail sleep cycle
// still installed.
func TestGuardRetriesRelease(t *testing.T) {
	// The outage opens at the first schedule cancellation after a
	// rejuvenation rhythm went in: the release's first step.
	installed := false
	j := &outageJournal{trip: func(rec store.Record) bool {
		if rec.Op != store.OpEngineSchedule {
			return false
		}
		if rec.SleepEpochs > 0 {
			installed = true
		}
		return installed && rec.SleepEpochs == 0
	}}
	rig, victim, first := outageRig(t, j)
	rel, ok := first[AlertReleased]
	if !ok || rel <= j.outEpoch {
		t.Fatalf("victim %s released at epoch %d (ok %v) although the release in epoch %d was refused", victim, rel, ok, j.outEpoch)
	}
	if m := rig.guard.MetricsSnapshot(); m.QuarantinedChips != 0 || m.ReleasesTotal != 1 {
		t.Fatalf("release lifecycle metrics: %+v", m)
	}
	// Released for real: the rhythm is gone, so the chip stays awake.
	for i := 0; i < 10; i++ {
		rig.tick(1)
		if cv, _ := rig.eng.Snapshot().Chip(victim); cv.Phase != engine.PhaseStressName {
			t.Fatalf("released victim %s back in phase %q at epoch %d", victim, cv.Phase, cv.Epoch)
		}
	}
}

// TestGuardHoldsOnlyJournaledChips: with a fleet wired, a hold is
// journaled only for fleet chips, so the guard convicts nothing else.
// An attacked engine-native chip keeps raising outlier alerts, is never
// quarantined, and no step of a hold it cannot journal logs an error.
func TestGuardHoldsOnlyJournaledChips(t *testing.T) {
	ctx := context.Background()
	fl, err := fleet.NewService(store.NewMem[*fleet.ChipEntry]())
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	var logs bytes.Buffer
	rig := newGuardRig(t, Config{}, Deps{Fleet: fl, Log: slog.New(slog.NewTextHandler(&logs, nil))}, 12)
	rig.tick(4)
	if err := rig.eng.SetCondition(ctx, "g005", engine.Cond{TempC: 110, Vdd: 1.32, Duty: 1}); err != nil {
		t.Fatal(err)
	}
	rig.tick(40)

	byKind := alertsByKind(rig.guard.Alerts(0))
	outliers := 0
	for _, a := range byKind[AlertOutlier] {
		if a.Chip == "g005" {
			outliers++
		}
	}
	if outliers < Defaults.Streak {
		t.Fatalf("attacked chip raised %d outlier alerts, want at least %d; alerts %+v", outliers, Defaults.Streak, rig.guard.Alerts(0))
	}
	if q := byKind[AlertQuarantined]; len(q) != 0 {
		t.Fatalf("engine-native chip quarantined without a journaled hold: %+v", q)
	}
	if m := rig.guard.MetricsSnapshot(); m.QuarantinedChips != 0 {
		t.Fatalf("quarantine metrics: %+v", m)
	}
	if strings.Contains(logs.String(), "level=ERROR") {
		t.Fatalf("guard logged errors:\n%s", logs.String())
	}
}
