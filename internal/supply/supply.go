// Package supply models the bench instrumentation and on-chip power
// infrastructure of the paper's experiments: the DC power supply that
// drives the FPGA core rail at its nominal 1.2 V, power gating (0 V
// sleep), the −0.3 V negative rail used for accelerated self-healing,
// and the external clock generator (fref = 500 Hz) that gates the RO
// counter.
//
// It also encodes the Section 6.1 feasibility analysis for *on-chip*
// negative-voltage generation: the chosen rail must stay above the
// lateral pn-junction breakdown limit, within the GIDL leakage budget,
// and the charge-pump area/power overheads are reported so a designer
// can judge the trade-off the paper discusses.
package supply

import (
	"errors"
	"fmt"
	"math"

	"selfheal/internal/units"
)

// Rail is the state of the core supply rail.
type Rail uint8

const (
	RailNominal  Rail = iota // operating voltage (stress during activity)
	RailGated                // 0 V power gating (passive recovery)
	RailNegative             // negative voltage (accelerated recovery)
)

// String names the rail state.
func (r Rail) String() string {
	switch r {
	case RailGated:
		return "gated"
	case RailNegative:
		return "negative"
	default:
		return "nominal"
	}
}

// PSUParams configures the bench power supply.
type PSUParams struct {
	Nominal  units.Volt // nominal core voltage (1.2 V)
	MaxV     units.Volt // most positive programmable voltage
	MinV     units.Volt // most negative programmable voltage
	StepV    units.Volt // programming resolution
	NoiseVpp units.Volt // peak-to-peak output ripple (ignored by the model, reported)
}

// DefaultPSUParams matches the paper's bench: a supply programmable
// from −1 V to +1.5 V around the 1.2 V nominal with millivolt setting
// resolution.
func DefaultPSUParams() PSUParams {
	return PSUParams{
		Nominal:  1.2,
		MaxV:     1.5,
		MinV:     -1.0,
		StepV:    0.001,
		NoiseVpp: 0.002,
	}
}

// Validate reports whether the PSU parameters are consistent.
func (p PSUParams) Validate() error {
	switch {
	case p.Nominal <= 0:
		return errors.New("supply: nominal voltage must be positive")
	case p.MaxV < p.Nominal:
		return errors.New("supply: MaxV below nominal")
	case p.MinV >= 0:
		return errors.New("supply: MinV must be negative to support accelerated recovery")
	case p.StepV <= 0:
		return errors.New("supply: StepV must be positive")
	case p.NoiseVpp < 0:
		return errors.New("supply: ripple must be non-negative")
	}
	return nil
}

// PSU is the programmable core supply.
type PSU struct {
	params PSUParams
	rail   Rail
	v      units.Volt
}

// NewPSU returns a supply powered up at the nominal voltage.
func NewPSU(p PSUParams) (*PSU, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &PSU{params: p, rail: RailNominal, v: p.Nominal}, nil
}

// Voltage returns the present rail voltage.
func (s *PSU) Voltage() units.Volt { return s.v }

// Rail returns the present rail state.
func (s *PSU) Rail() Rail { return s.rail }

// SetNominal drives the rail at the nominal operating voltage.
func (s *PSU) SetNominal() {
	s.rail = RailNominal
	s.v = s.params.Nominal
}

// Gate power-gates the rail to 0 V (the conventional sleep mode: the
// paper's point is that this only buys slow passive recovery).
func (s *PSU) Gate() {
	s.rail = RailGated
	s.v = 0
}

// SetNegative programs a negative recovery voltage. The argument is the
// rail voltage (e.g. −0.3); passing a non-negative value or a voltage
// outside the programmable range is an error and leaves the rail
// unchanged.
func (s *PSU) SetNegative(v units.Volt) error {
	if v >= 0 {
		return fmt.Errorf("supply: negative rail must be < 0, got %v", v)
	}
	if v < s.params.MinV {
		return fmt.Errorf("supply: %v below programmable minimum %v", v, s.params.MinV)
	}
	s.rail = RailNegative
	s.v = quantize(v, s.params.StepV)
	return nil
}

// SetStress programs an elevated (or reduced) positive stress voltage,
// for accelerated wearout testing at other-than-nominal bias.
func (s *PSU) SetStress(v units.Volt) error {
	if v <= 0 {
		return fmt.Errorf("supply: stress voltage must be positive, got %v", v)
	}
	if v > s.params.MaxV {
		return fmt.Errorf("supply: %v above programmable maximum %v", v, s.params.MaxV)
	}
	s.rail = RailNominal
	s.v = quantize(v, s.params.StepV)
	return nil
}

// PSUState is a supply's mutable state: its rail and output voltage.
type PSUState struct {
	Rail Rail
	V    units.Volt
}

// State returns the supply's mutable state.
func (s *PSU) State() PSUState { return PSUState{Rail: s.rail, V: s.v} }

// Restore sets the supply's mutable state, refusing an unknown rail or
// a voltage outside the programmable range.
func (s *PSU) Restore(st PSUState) error {
	if st.Rail > RailNegative {
		return fmt.Errorf("supply: unknown rail %d", st.Rail)
	}
	if !(st.V >= s.params.MinV && st.V <= s.params.MaxV) {
		return fmt.Errorf("supply: voltage %v outside [%v, %v]", st.V, s.params.MinV, s.params.MaxV)
	}
	s.rail, s.v = st.Rail, st.V
	return nil
}

func quantize(v, step units.Volt) units.Volt {
	return units.Volt(math.Round(float64(v)/float64(step))) * step
}

// ClockGen is the external reference clock that gates the RO counter.
type ClockGen struct {
	freq units.Hertz
}

// NewClockGen returns a generator at the given frequency; the paper
// uses 500 Hz.
func NewClockGen(f units.Hertz) (*ClockGen, error) {
	if f <= 0 {
		return nil, fmt.Errorf("supply: clock frequency must be positive, got %v", f)
	}
	return &ClockGen{freq: f}, nil
}

// Frequency returns the reference frequency.
func (c *ClockGen) Frequency() units.Hertz { return c.freq }

// GateWindow returns the counter gating window: one reference period.
func (c *ClockGen) GateWindow() units.Seconds {
	return units.Seconds(1 / float64(c.freq))
}

// NegVGenParams describes an on-chip negative-voltage generator (charge
// pump), for the Section 6.1 feasibility analysis.
type NegVGenParams struct {
	// BreakdownV is the lateral pn-junction breakdown limit: the rail
	// magnitude must stay strictly below it.
	BreakdownV units.Volt
	// GIDLBudgetNA is the tolerable gate-induced drain leakage in
	// nanoamps per cell; GIDL grows exponentially with the negative
	// rail magnitude.
	GIDLBudgetNA float64
	// GIDL0NA and GIDLSlopeVPerDecade parameterize the GIDL current:
	// I = GIDL0 · 10^(|V| / slope).
	GIDL0NA             float64
	GIDLSlopeVPerDecade float64
	// AreaPerCellUM2 and EfficiencyPct model the charge-pump overhead:
	// pump area in µm² per supplied cell and power conversion
	// efficiency.
	AreaPerCellUM2 float64
	EfficiencyPct  float64
}

// DefaultNegVGenParams returns 40 nm-class feasibility constants: a
// 0.6 V junction limit, tens of nA GIDL budget, and a charge pump in
// the 50–70 % efficiency range.
func DefaultNegVGenParams() NegVGenParams {
	return NegVGenParams{
		BreakdownV:          0.6,
		GIDLBudgetNA:        50,
		GIDL0NA:             1,
		GIDLSlopeVPerDecade: 0.25,
		AreaPerCellUM2:      1.8,
		EfficiencyPct:       60,
	}
}

// Feasibility is the outcome of checking a candidate negative rail.
type Feasibility struct {
	RailV          units.Volt
	OK             bool
	Reasons        []string // violated constraints, empty when OK
	GIDLNAPerCell  float64  // predicted GIDL at this rail
	AreaPerCellUM2 float64
	// PumpPowerOverheadPct is the extra power drawn by the pump as a
	// percentage of the delivered recovery-mode power.
	PumpPowerOverheadPct float64
}

// CheckNegativeRail evaluates the Section 6.1 constraints for a
// candidate on-chip negative rail voltage (must be < 0).
func CheckNegativeRail(p NegVGenParams, rail units.Volt) (Feasibility, error) {
	if rail >= 0 {
		return Feasibility{}, fmt.Errorf("supply: candidate rail must be negative, got %v", rail)
	}
	mag := float64(-rail)
	f := Feasibility{
		RailV:          rail,
		GIDLNAPerCell:  p.GIDL0NA * math.Pow(10, mag/p.GIDLSlopeVPerDecade),
		AreaPerCellUM2: p.AreaPerCellUM2,
	}
	if p.EfficiencyPct > 0 {
		f.PumpPowerOverheadPct = (100/p.EfficiencyPct - 1) * 100
	}
	if units.Volt(mag) >= p.BreakdownV {
		f.Reasons = append(f.Reasons,
			fmt.Sprintf("|%v| reaches the %v junction breakdown limit", rail, p.BreakdownV))
	}
	if f.GIDLNAPerCell > p.GIDLBudgetNA {
		f.Reasons = append(f.Reasons,
			fmt.Sprintf("GIDL %.1f nA exceeds the %.1f nA budget", f.GIDLNAPerCell, p.GIDLBudgetNA))
	}
	f.OK = len(f.Reasons) == 0
	return f, nil
}
