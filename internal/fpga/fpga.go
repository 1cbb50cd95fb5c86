// Package fpga models the 40 nm commercial FPGA the paper uses as its
// test platform, at the granularity its cross-layer model needs: a grid
// of 2-input pass-transistor LUT cells (package lut), bitstream-style
// configuration, design mapping, and chip-to-chip plus within-die
// process variation — the reason the paper compares chips by recovered
// delay rather than absolute frequency.
//
// The paper's five "Chip 1…5" become five NewChip calls with distinct
// variation seeds. Every transistor on a chip carries its own sampled
// Vth0 and Td0 and the aging state of its duty-history class in the
// die's device.Fabric, so the stress engine (package stress) can
// reproduce the paper's accelerated test schedule cell by cell while
// integrating each class once.
package fpga

import (
	"errors"
	"fmt"

	"selfheal/internal/device"
	"selfheal/internal/lut"
	"selfheal/internal/rng"
	"selfheal/internal/td"
	"selfheal/internal/units"
)

// Params configures a chip model.
type Params struct {
	Rows, Cols int // CLB grid dimensions

	Device device.Params // nominal transistor parameters
	TD     td.Params     // BTI model constants

	NominalVdd units.Volt // core supply (1.2 V for the paper's parts)

	// ChipSigmaFrac is the chip-to-chip σ of the global delay factor
	// (fractional). The paper's fresh ROs differ measurably between
	// chips; ~1 % is typical for a 40 nm process corner spread.
	ChipSigmaFrac float64
	// LocalSigmaFrac is the within-die per-transistor σ of Td0
	// (fractional).
	LocalSigmaFrac float64
	// VthSigmaV is the within-die per-transistor σ of the fresh
	// threshold voltage, in volts.
	VthSigmaV float64
}

// DefaultParams returns the 40 nm fabric model used throughout the
// reproduction: a 16×16 LUT grid (plenty for the 75-stage RO), 1.2 V
// nominal supply, 1 % chip-to-chip and 0.3 % local delay variation.
func DefaultParams() Params {
	return Params{
		Rows:           16,
		Cols:           16,
		Device:         device.DefaultParams(),
		TD:             td.DefaultParams(),
		NominalVdd:     1.2,
		ChipSigmaFrac:  0.01,
		LocalSigmaFrac: 0.003,
		VthSigmaV:      0.005,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Rows <= 0 || p.Cols <= 0:
		return errors.New("fpga: grid dimensions must be positive")
	case p.NominalVdd <= 0:
		return errors.New("fpga: nominal supply must be positive")
	case p.ChipSigmaFrac < 0 || p.LocalSigmaFrac < 0 || p.VthSigmaV < 0:
		return errors.New("fpga: variation sigmas must be non-negative")
	}
	if err := p.Device.Validate(); err != nil {
		return fmt.Errorf("fpga: %w", err)
	}
	if err := p.TD.Validate(); err != nil {
		return fmt.Errorf("fpga: %w", err)
	}
	return nil
}

// Chip is one FPGA die: a grid of LUT cells with sampled process
// variation, whose transistors share one device.Fabric that ages them
// by duty-history class.
type Chip struct {
	id     string
	params Params
	cells  []lut.LUT2 // row-major: cell (x, y) at y·Cols + x
	used   []bool
	fab    *device.Fabric
	// chipFactor is this die's global delay multiplier from
	// chip-to-chip variation.
	chipFactor float64
}

// NewChip fabricates a chip, drawing its process variation from src.
// Chips built with the same parameters and seed are identical.
func NewChip(id string, p Params, src *rng.Source) (*Chip, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Chip{
		id:         id,
		params:     p,
		used:       make([]bool, p.Rows*p.Cols),
		chipFactor: 1 + src.NormalWith(0, p.ChipSigmaFrac),
	}
	if c.chipFactor < 0.5 {
		// A die more than 50 % fast would be a yield outlier; clamp to
		// keep delay positive under any draw.
		c.chipFactor = 0.5
	}
	c.cells = lut.NewCells(p.Rows*p.Cols, p.Device, func(i int) string {
		return fmt.Sprintf("%s.X%dY%d", id, i%p.Cols, i/p.Cols)
	})
	c.fab, _ = c.cells[0].Fabric()
	// Draw each transistor's variation in fabric order (row-major
	// cells, each cell's devices in netlist order), Td0 before Vth0:
	// every chip a seed fabricates, and so every journal, depends on
	// this order.
	for i := 0; i < c.fab.Len(); i++ {
		td0 := p.Device.Td0NS * (c.chipFactor * (1 + src.NormalWith(0, p.LocalSigmaFrac)))
		vth0 := p.Device.Vth0 + units.Volt(src.NormalWith(0, p.VthSigmaV))
		c.fab.Vary(i, vth0, td0)
	}
	return c, nil
}

// ID returns the chip identifier ("Chip 1" … in the paper's tables).
func (c *Chip) ID() string { return c.id }

// Params returns the fabrication parameters.
func (c *Chip) Params() Params { return c.params }

// ChipFactor returns the die's global delay multiplier (process corner).
func (c *Chip) ChipFactor() float64 { return c.chipFactor }

// Size returns the grid dimensions (cols, rows).
func (c *Chip) Size() (cols, rows int) { return c.params.Cols, c.params.Rows }

// LUT returns the cell at (x, y), or an error if out of range.
func (c *Chip) LUT(x, y int) (*lut.LUT2, error) {
	if y < 0 || y >= c.params.Rows || x < 0 || x >= c.params.Cols {
		return nil, fmt.Errorf("fpga: cell (%d,%d) outside %dx%d grid",
			x, y, c.params.Cols, c.params.Rows)
	}
	return &c.cells[y*c.params.Cols+x], nil
}

// Used reports whether the cell at (x, y) belongs to a mapped design.
func (c *Chip) Used(x, y int) bool {
	if y < 0 || y >= c.params.Rows || x < 0 || x >= c.params.Cols {
		return false
	}
	return c.used[y*c.params.Cols+x]
}

// Cells calls f for every cell with its coordinates and used flag.
func (c *Chip) Cells(f func(x, y int, cell *lut.LUT2, used bool)) {
	for i := range c.cells {
		f(i%c.params.Cols, i/c.params.Cols, &c.cells[i], c.used[i])
	}
}

// Fabric returns the fabric holding every transistor on the die, cell
// by cell in row-major order.
func (c *Chip) Fabric() *device.Fabric { return c.fab }

// Transistors calls f for every transistor on the die.
func (c *Chip) Transistors(f func(tr device.Transistor)) {
	for i := 0; i < c.fab.Len(); i++ {
		f(c.fab.At(i))
	}
}

// Leakage returns the summed subthreshold leakage of the die in
// nanoamps.
func (c *Chip) Leakage() float64 { return c.fab.Leakage() }

// MeanVthShift returns the die-average threshold shift in volts —
// a convenient scalar health indicator.
func (c *Chip) MeanVthShift() float64 { return c.fab.MeanVthShift() }

// Reset returns every transistor to the fresh state and unmaps all
// designs (configuration is preserved).
func (c *Chip) Reset() {
	c.fab.Reset()
	clear(c.used)
}

// Mapping is a design placed on a chip: an ordered list of configured
// cells (for the RO, inverter i feeds inverter i+1).
type Mapping struct {
	Chip  *Chip
	Cells []*lut.LUT2
	Name  string
}

// MapCells places n free cells in snake order into a new mapping,
// marking them used but leaving their configuration untouched — the
// raw placement primitive package netlist builds on. Multiple designs
// coexist on one die; mapping fails (with full roll-back) only when
// fewer than n free cells remain.
func (c *Chip) MapCells(name string, n int) (*Mapping, error) {
	if n <= 0 {
		return nil, errors.New("fpga: cell count must be positive")
	}
	m := &Mapping{Chip: c, Name: name, Cells: make([]*lut.LUT2, 0, n)}
	total := c.params.Rows * c.params.Cols
	for i := 0; i < total && len(m.Cells) < n; i++ {
		y := i / c.params.Cols
		x := i % c.params.Cols
		if y%2 == 1 { // snake: odd rows run right-to-left
			x = c.params.Cols - 1 - x
		}
		ci := y*c.params.Cols + x
		if c.used[ci] {
			continue
		}
		c.used[ci] = true
		m.Cells = append(m.Cells, &c.cells[ci])
	}
	if len(m.Cells) < n {
		// Roll back the partial placement.
		for _, cell := range m.Cells {
			_, base := cell.Fabric()
			c.used[base/lut.NumTransistors] = false
		}
		return nil, fmt.Errorf("fpga: %d cells do not fit (%d free cells)",
			n, c.FreeCells()+len(m.Cells))
	}
	return m, nil
}

// MapInverterChain places an n-stage LUT-inverter chain (the paper's
// CUT) onto the first n free cells in snake order and configures each
// cell as an inverter.
func (c *Chip) MapInverterChain(name string, n int) (*Mapping, error) {
	m, err := c.MapCells(name, n)
	if err != nil {
		return nil, err
	}
	for _, cell := range m.Cells {
		cell.ConfigureInverter()
	}
	return m, nil
}

// FreeCells returns the number of unmapped cells.
func (c *Chip) FreeCells() int {
	free := 0
	for _, used := range c.used {
		if !used {
			free++
		}
	}
	return free
}

// PathDelay returns the summed POI delay in nanoseconds of the whole
// chain for a given per-stage input phase pattern. Because consecutive
// inverter stages see complementary inputs, the stage input alternates
// starting from in0 of the first stage.
func (m *Mapping) PathDelay(vdd units.Volt, firstIn0 bool) (float64, error) {
	total := 0.0
	in0 := firstIn0
	for _, cell := range m.Cells {
		d, err := cell.PathDelay(vdd, in0, true)
		if err != nil {
			return 0, err
		}
		total += d
		in0 = !in0 // inverter output feeds the next stage
	}
	return total, nil
}

// MeasuredDelay returns the oscillation-averaged chain delay in
// nanoseconds: the mean of the two alternating phase assignments, which
// is what the ring oscillator frequency reflects.
func (m *Mapping) MeasuredDelay(vdd units.Volt) (float64, error) {
	a, err := m.PathDelay(vdd, false)
	if err != nil {
		return 0, err
	}
	b, err := m.PathDelay(vdd, true)
	if err != nil {
		return 0, err
	}
	return (a + b) / 2, nil
}

// StagePhases returns the activity phases of stage i under DC stress
// frozen with the chain input at frozenIn0, or under AC (oscillating)
// stress when ac is true. The returned slices are shared, so the stress
// engine's per-step walk allocates nothing; callers must not modify
// them.
func (m *Mapping) StagePhases(i int, ac, frozenIn0 bool) []lut.Phase {
	if ac {
		return acStage
	}
	in0 := frozenIn0
	if i%2 == 1 {
		in0 = !frozenIn0
	}
	if in0 {
		return dcStage[1]
	}
	return dcStage[0]
}

// The activity patterns StagePhases returns: oscillating, and frozen
// with the stage input low or high.
var (
	acStage = lut.ACPhase()
	dcStage = [2][]lut.Phase{lut.DCPhase(false, true), lut.DCPhase(true, true)}
)
