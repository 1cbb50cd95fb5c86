// Package thermal provides the two temperature models the reproduction
// needs: the laboratory thermal chamber of the paper's accelerated
// tests (Section 4.3 — setpoints of 100/110 °C, fluctuation of ±0.3 °C,
// finite ramp rate), and an on-chip lumped-RC floorplan model used by
// the multi-core exploration (Section 6.2 — active cores acting as
// "on-chip heaters" for sleeping neighbours).
package thermal

import (
	"errors"
	"fmt"
	"math"

	"selfheal/internal/rng"
	"selfheal/internal/units"
)

// ChamberParams configures a laboratory thermal chamber.
type ChamberParams struct {
	// FluctuationC is the peak temperature fluctuation around the
	// setpoint in °C (the paper's chamber holds ±0.3 °C).
	FluctuationC float64
	// RampCPerMin is the heating/cooling slew rate in °C per minute.
	RampCPerMin float64
	// MinC and MaxC bound the reachable setpoints.
	MinC, MaxC units.Celsius
}

// DefaultChamberParams matches the paper's setup: ±0.3 °C stability and
// a chamber able to span −40 °C (the part's rated minimum) up to 150 °C
// (well above the 110 °C accelerated setpoint, below destruction).
func DefaultChamberParams() ChamberParams {
	return ChamberParams{
		FluctuationC: 0.3,
		RampCPerMin:  5,
		MinC:         -40,
		MaxC:         150,
	}
}

// Validate reports whether the chamber parameters are usable.
func (p ChamberParams) Validate() error {
	switch {
	case p.FluctuationC < 0:
		return errors.New("thermal: fluctuation must be non-negative")
	case p.RampCPerMin <= 0:
		return errors.New("thermal: ramp rate must be positive")
	case p.MaxC <= p.MinC:
		return errors.New("thermal: MaxC must exceed MinC")
	}
	return nil
}

// Chamber is a thermal chamber holding a device under test.
type Chamber struct {
	params   ChamberParams
	setpoint units.Celsius
	current  units.Celsius
	src      *rng.Source
}

// NewChamber returns a chamber idling at 20 °C ambient.
func NewChamber(p ChamberParams, src *rng.Source) (*Chamber, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Chamber{params: p, setpoint: 20, current: 20, src: src}, nil
}

// SetTarget programs a new setpoint. It returns an error if the target
// is outside the chamber's range; the chamber then keeps its previous
// setpoint.
func (c *Chamber) SetTarget(t units.Celsius) error {
	if t < c.params.MinC || t > c.params.MaxC {
		return fmt.Errorf("thermal: setpoint %v outside chamber range [%v, %v]",
			t, c.params.MinC, c.params.MaxC)
	}
	c.setpoint = t
	return nil
}

// ChamberState is a chamber's mutable state: setpoint, plate
// temperature and fluctuation stream.
type ChamberState struct {
	Setpoint units.Celsius
	Current  units.Celsius
	Src      uint64 // the fluctuation generator's state
}

// State returns the chamber's mutable state.
func (c *Chamber) State() ChamberState {
	return ChamberState{Setpoint: c.setpoint, Current: c.current, Src: c.src.State()}
}

// Restore sets the chamber's mutable state, refusing a setpoint
// outside the chamber's range or a non-finite plate temperature.
func (c *Chamber) Restore(s ChamberState) error {
	if !(s.Setpoint >= c.params.MinC && s.Setpoint <= c.params.MaxC) {
		return fmt.Errorf("thermal: setpoint %v outside chamber range [%v, %v]",
			s.Setpoint, c.params.MinC, c.params.MaxC)
	}
	if math.IsNaN(float64(s.Current)) || math.IsInf(float64(s.Current), 0) {
		return fmt.Errorf("thermal: plate temperature %v is not finite", s.Current)
	}
	c.setpoint, c.current = s.Setpoint, s.Current
	c.src.SetState(s.Src)
	return nil
}

// Target returns the programmed setpoint.
func (c *Chamber) Target() units.Celsius { return c.setpoint }

// Step advances the chamber by dt: it slews toward the setpoint at the
// ramp rate and, once settled, wobbles within the fluctuation band.
// It returns the new plate temperature.
func (c *Chamber) Step(dt units.Seconds) units.Celsius {
	if dt < 0 {
		panic("thermal: negative chamber step")
	}
	maxMove := units.Celsius(c.params.RampCPerMin * dt.Hours() * 60)
	diff := c.setpoint - c.current
	switch {
	case diff > maxMove:
		c.current += maxMove
	case diff < -maxMove:
		c.current -= maxMove
	default:
		f := c.params.FluctuationC
		c.current = c.setpoint + units.Celsius(c.src.Uniform(-f, f))
	}
	return c.current
}

// Temperature returns the present plate temperature.
func (c *Chamber) Temperature() units.Celsius { return c.current }

// Settled reports whether the chamber is within the fluctuation band of
// its setpoint (plus a microkelvin guard for float comparisons).
func (c *Chamber) Settled() bool {
	return math.Abs(float64(c.current-c.setpoint)) <= c.params.FluctuationC+1e-6
}

// SettleTime returns how long the chamber needs to ramp from its
// current temperature to the setpoint.
func (c *Chamber) SettleTime() units.Seconds {
	diff := math.Abs(float64(c.setpoint - c.current))
	return units.Seconds(diff / c.params.RampCPerMin * 60)
}

// GridParams configures the on-chip lumped-RC thermal model: a grid of
// tiles (cores), each with a heat capacity, a conductance to its
// neighbours, and a conductance to ambient through the package.
type GridParams struct {
	Rows, Cols int
	AmbientC   units.Celsius
	// CapJPerC is each tile's heat capacity in joules per °C.
	CapJPerC float64
	// GNeighborWPerC is the lateral thermal conductance between
	// adjacent tiles in watts per °C.
	GNeighborWPerC float64
	// GAmbientWPerC is each tile's conductance to ambient (heat
	// spreader + package) in watts per °C.
	GAmbientWPerC float64
}

// DefaultGridParams returns constants for a 2×4 eight-core floorplan
// (the paper's Fig. 10) with time constants of a few seconds and a
// steady-state self-heating of roughly 40 °C at a 10 W core power —
// representative of a commercial multi-core part.
func DefaultGridParams() GridParams {
	return GridParams{
		Rows:           2,
		Cols:           4,
		AmbientC:       45, // inside-case ambient
		CapJPerC:       20,
		GNeighborWPerC: 0.10,
		GAmbientWPerC:  0.15,
	}
}

// Validate reports whether the grid parameters are usable.
func (p GridParams) Validate() error {
	switch {
	case p.Rows <= 0 || p.Cols <= 0:
		return errors.New("thermal: grid dimensions must be positive")
	case p.CapJPerC <= 0:
		return errors.New("thermal: heat capacity must be positive")
	case p.GNeighborWPerC < 0 || p.GAmbientWPerC <= 0:
		return errors.New("thermal: conductances must be positive (lateral may be zero)")
	}
	return nil
}

// Grid is the lumped-RC floorplan simulator. Tiles are indexed
// row-major.
type Grid struct {
	params GridParams
	tempC  []float64 // per tile
	powerW []float64 // per tile, set by the scheduler
}

// NewGrid returns a grid settled at ambient with zero power everywhere.
func NewGrid(p GridParams) (*Grid, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Rows * p.Cols
	g := &Grid{params: p, tempC: make([]float64, n), powerW: make([]float64, n)}
	for i := range g.tempC {
		g.tempC[i] = float64(p.AmbientC)
	}
	return g, nil
}

// Tiles returns the number of tiles.
func (g *Grid) Tiles() int { return len(g.tempC) }

// SetPower programs tile i's dissipation in watts.
func (g *Grid) SetPower(i int, watts float64) error {
	if i < 0 || i >= len(g.powerW) {
		return fmt.Errorf("thermal: tile %d out of range", i)
	}
	if watts < 0 {
		return fmt.Errorf("thermal: negative power %v", watts)
	}
	g.powerW[i] = watts
	return nil
}

// Temperature returns tile i's temperature.
func (g *Grid) Temperature(i int) (units.Celsius, error) {
	if i < 0 || i >= len(g.tempC) {
		return 0, fmt.Errorf("thermal: tile %d out of range", i)
	}
	return units.Celsius(g.tempC[i]), nil
}

// Temperatures returns a copy of all tile temperatures.
func (g *Grid) Temperatures() []units.Celsius {
	out := make([]units.Celsius, len(g.tempC))
	for i, t := range g.tempC {
		out[i] = units.Celsius(t)
	}
	return out
}

// neighbors calls f with each in-grid neighbor of tile i.
func (g *Grid) neighbors(i int, f func(j int)) {
	r, c := i/g.params.Cols, i%g.params.Cols
	if r > 0 {
		f(i - g.params.Cols)
	}
	if r < g.params.Rows-1 {
		f(i + g.params.Cols)
	}
	if c > 0 {
		f(i - 1)
	}
	if c < g.params.Cols-1 {
		f(i + 1)
	}
}

// maxStableStep is the largest explicit-Euler step that keeps the
// integration stable: dt < C / Gtotal with a 2× safety margin.
func (g *Grid) maxStableStep() float64 {
	gTot := g.params.GAmbientWPerC + 4*g.params.GNeighborWPerC
	return g.params.CapJPerC / gTot / 2
}

// Step advances the grid by dt using sub-stepped explicit Euler
// integration of C·dT/dt = P + ΣG·(Tj−Ti) + Ga·(Tamb−Ti).
func (g *Grid) Step(dt units.Seconds) {
	if dt < 0 {
		panic("thermal: negative grid step")
	}
	remaining := float64(dt)
	maxStep := g.maxStableStep()
	next := make([]float64, len(g.tempC))
	for remaining > 0 {
		h := math.Min(remaining, maxStep)
		remaining -= h
		for i, ti := range g.tempC {
			flux := g.powerW[i] + g.params.GAmbientWPerC*(float64(g.params.AmbientC)-ti)
			g.neighbors(i, func(j int) {
				flux += g.params.GNeighborWPerC * (g.tempC[j] - ti)
			})
			next[i] = ti + h*flux/g.params.CapJPerC
		}
		copy(g.tempC, next)
	}
}

// SteadyState iterates until the largest per-tile change over one
// second falls below epsC (or maxIter seconds pass) and returns the
// settled temperatures.
func (g *Grid) SteadyState(epsC float64, maxIter int) []units.Celsius {
	for iter := 0; iter < maxIter; iter++ {
		before := append([]float64(nil), g.tempC...)
		g.Step(1)
		worst := 0.0
		for i := range before {
			worst = math.Max(worst, math.Abs(g.tempC[i]-before[i]))
		}
		if worst < epsC {
			break
		}
	}
	return g.Temperatures()
}
