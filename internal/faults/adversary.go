// Adversary is the domain-fault half of the chaos harness: where the
// Injector breaks infrastructure (latency, 500s, torn writes), the
// Adversary breaks *chips* — a seeded wearout red team that picks
// victim chips and drives worst-case aging through the engine's own
// condition and schedule events. Like the Injector, it only decides;
// the guard package applies the actions (and reports back the ones a
// quarantine blocked), so a run is reproducible from its seed.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// AdversaryActionKind classifies one red-team move.
type AdversaryActionKind uint8

const (
	// AdvStress drives the victim to dc-stress at the attack
	// temperature and voltage. It both opens the attack and implements
	// sleep-window denial: re-asserted over a sleep phase it yanks the
	// chip back under worst-case stress.
	AdvStress AdversaryActionKind = iota
	// AdvCancel cancels the victim's stress/sleep schedule —
	// cancellation spam that strips any protective circadian rhythm so
	// the chip never reaches a recovery window on its own.
	AdvCancel
)

// String names the action kind for logs and alerts.
func (k AdversaryActionKind) String() string {
	if k == AdvCancel {
		return "cancel"
	}
	return "stress"
}

// AdversaryAction is one decided move against one victim chip.
type AdversaryAction struct {
	Epoch uint64
	Chip  string
	Kind  AdversaryActionKind
}

// AdversaryConfig parameterizes the red team. The zero config is
// inactive; NewAdversary fills attack-condition defaults (110C, 1.32V,
// duty 1 — the engine's worst case) when victims are requested.
type AdversaryConfig struct {
	// Seed fixes victim choice and the per-epoch action stream.
	Seed uint64
	// Victims is how many chips to target; 0 disables the adversary.
	Victims int
	// TempC and Vdd are the attack stress condition (defaults 110, 1.32).
	TempC float64
	Vdd   float64
	// Duty is the attack duty cycle (default 1: dc-stress).
	Duty float64
	// Start is the epoch the attack opens at (stress + cancel on every
	// victim); earlier epochs draw no actions.
	Start uint64
	// CancelP is the per-victim per-epoch probability of schedule-
	// cancellation spam after the attack opens.
	CancelP float64
	// DenyP is the per-victim per-epoch probability of sleep-window
	// denial (re-asserting dc-stress) after the attack opens.
	DenyP float64
}

// Active reports whether the config attacks anything at all.
func (c AdversaryConfig) Active() bool { return c.Victims > 0 }

func (c AdversaryConfig) validate() error {
	if c.Victims < 0 {
		return fmt.Errorf("faults: adversary victims must be ≥ 0, got %d", c.Victims)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"cancel_p", c.CancelP}, {"deny_p", c.DenyP}, {"duty", c.Duty}} {
		if !(p.v >= 0 && p.v <= 1) { // NaN fails too
			return fmt.Errorf("faults: adversary %s must be in [0,1], got %v", p.name, p.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"temp_c", c.TempC}, {"vdd", c.Vdd}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("faults: adversary %s must be finite, got %v", f.name, f.v)
		}
	}
	return nil
}

// ParseAdversary parses the -adversary CLI spec: comma-separated
// key=value pairs with keys seed, victims, temp_c, vdd, duty, start,
// cancel_p and deny_p, e.g.
//
//	seed=7,victims=4,temp_c=110,vdd=1.32,start=20,cancel_p=0.5,deny_p=0.5
func ParseAdversary(spec string) (AdversaryConfig, error) {
	var cfg AdversaryConfig
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return AdversaryConfig{}, fmt.Errorf("faults: bad adversary spec entry %q (want key=value)", kv)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 10, 64)
		case "victims":
			cfg.Victims, err = strconv.Atoi(val)
		case "temp_c":
			cfg.TempC, err = strconv.ParseFloat(val, 64)
		case "vdd":
			cfg.Vdd, err = strconv.ParseFloat(val, 64)
		case "duty":
			cfg.Duty, err = strconv.ParseFloat(val, 64)
		case "start":
			cfg.Start, err = strconv.ParseUint(val, 10, 64)
		case "cancel_p":
			cfg.CancelP, err = strconv.ParseFloat(val, 64)
		case "deny_p":
			cfg.DenyP, err = strconv.ParseFloat(val, 64)
		default:
			return AdversaryConfig{}, fmt.Errorf("faults: unknown adversary spec key %q", key)
		}
		if err != nil {
			return AdversaryConfig{}, fmt.Errorf("faults: adversary spec %s: %w", key, err)
		}
	}
	if err := cfg.validate(); err != nil {
		return AdversaryConfig{}, err
	}
	return cfg, nil
}

// String re-emits the config in ParseAdversary's grammar, mirroring
// Config.String: ParseAdversary(c.String()) reproduces c for any valid
// config, and the zero config renders as "".
func (c AdversaryConfig) String() string {
	var parts []string
	emit := func(key, val string) { parts = append(parts, key+"="+val) }
	if c.Seed != 0 {
		emit("seed", strconv.FormatUint(c.Seed, 10))
	}
	if c.Victims != 0 {
		emit("victims", strconv.Itoa(c.Victims))
	}
	if c.TempC != 0 {
		emit("temp_c", strconv.FormatFloat(c.TempC, 'g', -1, 64))
	}
	if c.Vdd != 0 {
		emit("vdd", strconv.FormatFloat(c.Vdd, 'g', -1, 64))
	}
	if c.Duty != 0 {
		emit("duty", strconv.FormatFloat(c.Duty, 'g', -1, 64))
	}
	if c.Start != 0 {
		emit("start", strconv.FormatUint(c.Start, 10))
	}
	if c.CancelP != 0 {
		emit("cancel_p", strconv.FormatFloat(c.CancelP, 'g', -1, 64))
	}
	if c.DenyP != 0 {
		emit("deny_p", strconv.FormatFloat(c.DenyP, 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}

// AdversaryStats counts the moves actually decided, and how many of
// them the blue team blocked (reported back by the applier).
type AdversaryStats struct {
	VictimsPicked int    `json:"victims_picked"`
	StressActs    uint64 `json:"stress_acts"`
	CancelActs    uint64 `json:"cancel_acts"`
	Blocked       uint64 `json:"blocked"`
}

// Adversary draws red-team actions from a seeded PRNG. Construction
// with the same config and the same call sequence (PickVictims over the
// same id set, Actions per epoch in order) replays the same attack.
type Adversary struct {
	cfg AdversaryConfig

	mu      sync.Mutex
	rng     *rand.Rand
	victims []string
	opened  bool

	stress, cancels, blocked atomic.Uint64
}

// NewAdversary validates the config, fills attack defaults, and returns
// the decision core (nil, nil when the config is inactive).
func NewAdversary(cfg AdversaryConfig) (*Adversary, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !cfg.Active() {
		return nil, nil
	}
	if cfg.TempC == 0 {
		cfg.TempC = 110
	}
	if cfg.Vdd == 0 {
		cfg.Vdd = 1.32
	}
	if cfg.Duty == 0 {
		cfg.Duty = 1
	}
	return &Adversary{cfg: cfg, rng: rand.New(rand.NewSource(int64(cfg.Seed)))}, nil
}

// Config returns the (default-filled) attack configuration; the applier
// reads the stress condition from it. A nil adversary is inactive.
func (a *Adversary) Config() AdversaryConfig {
	if a == nil {
		return AdversaryConfig{}
	}
	return a.cfg
}

// PickVictims chooses the victim set from the candidate ids: a seeded
// shuffle over the sorted candidates, so the same fleet and seed always
// condemn the same chips. Calling it again re-picks (e.g. after fleet
// churn); actions only ever target the latest set.
func (a *Adversary) PickVictims(ids []string) []string {
	if a == nil || len(ids) == 0 {
		return nil
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rng.Shuffle(len(sorted), func(i, j int) { sorted[i], sorted[j] = sorted[j], sorted[i] })
	n := a.cfg.Victims
	if n > len(sorted) {
		n = len(sorted)
	}
	a.victims = append([]string(nil), sorted[:n]...)
	sort.Strings(a.victims)
	return append([]string(nil), a.victims...)
}

// Victims returns a copy of the current victim set (sorted).
func (a *Adversary) Victims() []string {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.victims...)
}

// Actions draws the red-team moves for one epoch. Before the start
// epoch it returns nil. At the start epoch the attack opens: every
// victim gets dc-stress plus cancellation of any protective schedule.
// After that, each epoch draws per-victim cancellation spam (CancelP)
// and sleep-window denial (DenyP, re-asserted stress).
func (a *Adversary) Actions(epoch uint64) []AdversaryAction {
	if a == nil || epoch < a.cfg.Start {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var acts []AdversaryAction
	add := func(chip string, kind AdversaryActionKind) {
		acts = append(acts, AdversaryAction{Epoch: epoch, Chip: chip, Kind: kind})
		if kind == AdvCancel {
			a.cancels.Add(1)
		} else {
			a.stress.Add(1)
		}
	}
	if !a.opened {
		a.opened = true
		for _, v := range a.victims {
			add(v, AdvStress)
			add(v, AdvCancel)
		}
		return acts
	}
	for _, v := range a.victims {
		if a.cfg.CancelP > 0 && a.rng.Float64() < a.cfg.CancelP {
			add(v, AdvCancel)
		}
		if a.cfg.DenyP > 0 && a.rng.Float64() < a.cfg.DenyP {
			add(v, AdvStress)
		}
	}
	return acts
}

// RecordBlocked is how the applier reports actions the blue team's
// quarantine refused — the adversary decides, the guard applies, and
// blocked moves still count toward the attack narrative.
func (a *Adversary) RecordBlocked(n int) {
	if a == nil || n <= 0 {
		return
	}
	a.blocked.Add(uint64(n))
}

// Stats snapshots the decision counters.
func (a *Adversary) Stats() AdversaryStats {
	if a == nil {
		return AdversaryStats{}
	}
	a.mu.Lock()
	picked := len(a.victims)
	a.mu.Unlock()
	return AdversaryStats{
		VictimsPicked: picked,
		StressActs:    a.stress.Load(),
		CancelActs:    a.cancels.Load(),
		Blocked:       a.blocked.Load(),
	}
}
