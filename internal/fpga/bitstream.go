package fpga

import (
	"fmt"
)

// Bitstream is a serialized chip configuration: one byte per cell in
// row-major order, the low four bits holding the truth table
// (bit b = cfg entry b) and bit 4 the used flag. It lets experiments
// snapshot a configuration from one chip and program an identical
// design onto another — the reconfigurability that makes FPGAs the
// paper's test platform of choice.
type Bitstream []byte

const usedBit = 1 << 4

// ExtractBitstream serializes the current configuration.
func (c *Chip) ExtractBitstream() Bitstream {
	bs := make(Bitstream, 0, c.params.Rows*c.params.Cols)
	for i := range c.cells {
		var b byte
		for bit, v := range c.cells[i].Config() {
			if v {
				b |= 1 << bit
			}
		}
		if c.used[i] {
			b |= usedBit
		}
		bs = append(bs, b)
	}
	return bs
}

// LoadBitstream programs the chip from a serialized configuration. The
// bitstream must match the grid size exactly and use only defined bits.
// Aging state is untouched — reprogramming a die does not heal it.
func (c *Chip) LoadBitstream(bs Bitstream) error {
	want := c.params.Rows * c.params.Cols
	if len(bs) != want {
		return fmt.Errorf("fpga: bitstream length %d, want %d", len(bs), want)
	}
	for i, b := range bs {
		if b&^(usedBit|0x0f) != 0 {
			return fmt.Errorf("fpga: bitstream byte %d has undefined bits 0x%02x", i, b)
		}
	}
	for i, b := range bs {
		var cfg [4]bool
		for bit := range cfg {
			cfg[bit] = b>>bit&1 == 1
		}
		c.cells[i].Configure(cfg)
		c.used[i] = b&usedBit != 0
	}
	return nil
}
