// Package guard closes the self-healing loop: a blue team watching
// every chip's aging rate through the engine's per-epoch snapshots,
// and an automated responder that quarantines outliers, remaps their
// logic onto spare fabric, and schedules accelerated rejuvenation
// until the wearout excess is recovered. Its sparring partner is the
// red team in internal/faults (Adversary), whose decided actions the
// guard also applies — through the same engine API a real workload
// would use — so attack and defence meet in one reproducible arena.
package guard

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Config tunes the blue team. Zero fields mean "use the default";
// Parse and New both fill them, so a zero Config is the stock guard.
//
// The detection defaults are calibrated against the aging model's
// nominal operating point (80C / 1.2V, 0.5h epochs): the per-epoch
// Vth drift there is ~4e-5 V while a dc-stress attack at 110C / 1.32V
// lands 15-150x higher, so a 4-sigma robust outlier test with a
// 5e-4 V/epoch absolute floor separates them with wide margin.
type Config struct {
	// SigmaK is the robust z-score threshold: a chip is an outlier
	// when its per-epoch Vth delta exceeds the fleet median by more
	// than SigmaK scaled median-absolute-deviations. Median/MAD (not
	// mean/stddev) keep the baseline honest even when the victims
	// themselves are a visible fraction of the fleet.
	SigmaK float64
	// RateFloorV is the absolute per-epoch Vth-delta floor (volts): in
	// a perfectly homogeneous fleet the MAD collapses to zero and the
	// relative test alone would flag noise, so both tests must pass.
	RateFloorV float64
	// Streak is how many consecutive outlier epochs convict a chip.
	Streak int
	// Warmup is how many epochs of history detection waits for before
	// judging anyone (fresh chips front-load drift under the log law).
	Warmup uint64
	// RejuvEpochs is the minimum accelerated-sleep epochs a
	// quarantined chip must receive before release is considered.
	RejuvEpochs uint64
	// RejuvTempC / RejuvVdd are the accelerated-rejuvenation sleep
	// condition (high temperature, negative rail: the paper's active
	// recovery mode).
	RejuvTempC float64
	RejuvVdd   float64
	// RecoverFrac is the release bar: the fraction of the attack
	// excess (peak Vth minus onset Vth) that must be recovered.
	RecoverFrac float64
	// MaxQuarFrac is the SLO budget: at most this fraction of the
	// fleet (minimum 1 chip) quarantined at once; further convictions
	// are deferred until a slot frees.
	MaxQuarFrac float64
	// RemapCells is how many spare-fabric cells to claim per
	// quarantined chip when a spare chip is wired in.
	RemapCells int
	// NominalTempC / NominalVdd are the condition a chip is returned
	// to on release (the attack clobbered its original one).
	NominalTempC float64
	NominalVdd   float64
}

// Defaults is the stock blue-team tuning (see Config field docs).
var Defaults = Config{
	SigmaK:       4,
	RateFloorV:   5e-4,
	Streak:       2,
	Warmup:       2,
	RejuvEpochs:  4,
	RejuvTempC:   110,
	RejuvVdd:     -0.3,
	RecoverFrac:  0.9,
	MaxQuarFrac:  0.25,
	RemapCells:   8,
	NominalTempC: 80,
	NominalVdd:   1.2,
}

// withDefaults fills zero fields from Defaults.
func (c Config) withDefaults() Config {
	d := Defaults
	if c.SigmaK == 0 {
		c.SigmaK = d.SigmaK
	}
	if c.RateFloorV == 0 {
		c.RateFloorV = d.RateFloorV
	}
	if c.Streak == 0 {
		c.Streak = d.Streak
	}
	if c.Warmup == 0 {
		c.Warmup = d.Warmup
	}
	if c.RejuvEpochs == 0 {
		c.RejuvEpochs = d.RejuvEpochs
	}
	if c.RejuvTempC == 0 {
		c.RejuvTempC = d.RejuvTempC
	}
	if c.RejuvVdd == 0 {
		c.RejuvVdd = d.RejuvVdd
	}
	if c.RecoverFrac == 0 {
		c.RecoverFrac = d.RecoverFrac
	}
	if c.MaxQuarFrac == 0 {
		c.MaxQuarFrac = d.MaxQuarFrac
	}
	if c.RemapCells == 0 {
		c.RemapCells = d.RemapCells
	}
	if c.NominalTempC == 0 {
		c.NominalTempC = d.NominalTempC
	}
	if c.NominalVdd == 0 {
		c.NominalVdd = d.NominalVdd
	}
	return c
}

func (c Config) validate() error {
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"sigma", c.SigmaK}, {"rate_floor", c.RateFloorV},
		{"rejuv_temp_c", c.RejuvTempC}, {"rejuv_vdd", c.RejuvVdd},
		{"recover_frac", c.RecoverFrac}, {"max_quarantine_frac", c.MaxQuarFrac},
		{"nominal_temp_c", c.NominalTempC}, {"nominal_vdd", c.NominalVdd},
	} {
		// The range checks below are all false for NaN.
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("guard: %s must be finite, got %v", f.key, f.v)
		}
	}
	if c.SigmaK < 0 {
		return fmt.Errorf("guard: sigma must be ≥ 0, got %v", c.SigmaK)
	}
	if c.RateFloorV < 0 {
		return fmt.Errorf("guard: rate_floor must be ≥ 0, got %v", c.RateFloorV)
	}
	if c.Streak < 1 {
		return fmt.Errorf("guard: streak must be ≥ 1, got %d", c.Streak)
	}
	if c.RejuvVdd > 0 {
		return fmt.Errorf("guard: rejuv_vdd must be ≤ 0 (recovery rail), got %v", c.RejuvVdd)
	}
	if c.RecoverFrac <= 0 || c.RecoverFrac > 1 {
		return fmt.Errorf("guard: recover_frac must be in (0,1], got %v", c.RecoverFrac)
	}
	if c.MaxQuarFrac <= 0 || c.MaxQuarFrac > 1 {
		return fmt.Errorf("guard: max_quarantine_frac must be in (0,1], got %v", c.MaxQuarFrac)
	}
	if c.RemapCells < 1 {
		return fmt.Errorf("guard: remap_cells must be ≥ 1, got %d", c.RemapCells)
	}
	if c.NominalVdd <= 0 {
		return fmt.Errorf("guard: nominal_vdd must be > 0, got %v", c.NominalVdd)
	}
	return nil
}

// Parse reads the -guard-spec CLI grammar: comma-separated key=value
// pairs in the faults.Config style, e.g.
//
//	sigma=4,rate_floor=5e-4,streak=2,rejuv_epochs=4,recover_frac=0.9
//
// Keys: sigma, rate_floor, streak, warmup, rejuv_epochs, rejuv_temp_c,
// rejuv_vdd, recover_frac, max_quarantine_frac, remap_cells,
// nominal_temp_c, nominal_vdd. Omitted keys (and the empty spec) take
// the Defaults values.
func Parse(spec string) (Config, error) {
	cfg := Defaults
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Config{}, fmt.Errorf("guard: bad spec entry %q (want key=value)", kv)
		}
		var err error
		switch key {
		case "sigma":
			cfg.SigmaK, err = strconv.ParseFloat(val, 64)
		case "rate_floor":
			cfg.RateFloorV, err = strconv.ParseFloat(val, 64)
		case "streak":
			cfg.Streak, err = strconv.Atoi(val)
		case "warmup":
			cfg.Warmup, err = strconv.ParseUint(val, 10, 64)
		case "rejuv_epochs":
			cfg.RejuvEpochs, err = strconv.ParseUint(val, 10, 64)
		case "rejuv_temp_c":
			cfg.RejuvTempC, err = strconv.ParseFloat(val, 64)
		case "rejuv_vdd":
			cfg.RejuvVdd, err = strconv.ParseFloat(val, 64)
		case "recover_frac":
			cfg.RecoverFrac, err = strconv.ParseFloat(val, 64)
		case "max_quarantine_frac":
			cfg.MaxQuarFrac, err = strconv.ParseFloat(val, 64)
		case "remap_cells":
			cfg.RemapCells, err = strconv.Atoi(val)
		case "nominal_temp_c":
			cfg.NominalTempC, err = strconv.ParseFloat(val, 64)
		case "nominal_vdd":
			cfg.NominalVdd, err = strconv.ParseFloat(val, 64)
		default:
			return Config{}, fmt.Errorf("guard: unknown spec key %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("guard: spec %s: %w", key, err)
		}
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// String re-emits the config in Parse's grammar, listing only fields
// that differ from Defaults (so the stock config renders as "").
// Parse(c.String()) reproduces c for any config Parse accepts.
func (c Config) String() string {
	var parts []string
	d := Defaults
	emitF := func(key string, v, def float64) {
		if v != def {
			parts = append(parts, key+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	emitU := func(key string, v, def uint64) {
		if v != def {
			parts = append(parts, key+"="+strconv.FormatUint(v, 10))
		}
	}
	emitF("sigma", c.SigmaK, d.SigmaK)
	emitF("rate_floor", c.RateFloorV, d.RateFloorV)
	if c.Streak != d.Streak {
		parts = append(parts, "streak="+strconv.Itoa(c.Streak))
	}
	emitU("warmup", c.Warmup, d.Warmup)
	emitU("rejuv_epochs", c.RejuvEpochs, d.RejuvEpochs)
	emitF("rejuv_temp_c", c.RejuvTempC, d.RejuvTempC)
	emitF("rejuv_vdd", c.RejuvVdd, d.RejuvVdd)
	emitF("recover_frac", c.RecoverFrac, d.RecoverFrac)
	emitF("max_quarantine_frac", c.MaxQuarFrac, d.MaxQuarFrac)
	if c.RemapCells != d.RemapCells {
		parts = append(parts, "remap_cells="+strconv.Itoa(c.RemapCells))
	}
	emitF("nominal_temp_c", c.NominalTempC, d.NominalTempC)
	emitF("nominal_vdd", c.NominalVdd, d.NominalVdd)
	return strings.Join(parts, ",")
}
