package rtl

import (
	"fmt"

	"repro/internal/netlist"
)

// Builder wraps a module under construction with hierarchical naming and the
// gate/register idioms the core generators share. Scoped sub-builders model
// design hierarchy: cells created under different scopes may be structurally
// identical (same function, same input nets), which is precisely the
// duplication the PAR optimizer later collapses.
type Builder struct {
	M      *netlist.Module
	prefix string
	seq    int

	gnd, vcc netlist.NetID
}

// NewBuilder starts a module named name.
func NewBuilder(name string) *Builder {
	return &Builder{M: netlist.NewModule(name)}
}

// Scope returns a child builder whose cells are named under prefix/name.
func (b *Builder) Scope(name string) *Builder {
	child := *b
	if b.prefix != "" {
		child.prefix = b.prefix + "/" + name
	} else {
		child.prefix = name
	}
	child.seq = 0
	return &child
}

// Scopef is Scope with a formatted name.
func (b *Builder) Scopef(format string, args ...any) *Builder {
	return b.Scope(fmt.Sprintf(format, args...))
}

func (b *Builder) name(kind string) string {
	b.seq++
	if b.prefix == "" {
		return fmt.Sprintf("%s%d", kind, b.seq)
	}
	return fmt.Sprintf("%s/%s%d", b.prefix, kind, b.seq)
}

// Gnd returns the module's constant-zero net, creating its driver on demand.
func (b *Builder) Gnd() netlist.NetID {
	if b.gnd == netlist.NoNet {
		b.gnd = b.M.AddCell(netlist.GND, "gnd", 0)
	}
	return b.gnd
}

// Vcc returns the module's constant-one net, creating its driver on demand.
func (b *Builder) Vcc() netlist.NetID {
	if b.vcc == netlist.NoNet {
		b.vcc = b.M.AddCell(netlist.VCC, "vcc", 0)
	}
	return b.vcc
}

// LUT emits a lookup table computing the given truth table over ins.
// The table is indexed by the input vector with ins[0] as bit 0.
func (b *Builder) LUT(table uint64, ins ...netlist.NetID) netlist.NetID {
	k := netlist.LUTKind(len(ins))
	return b.M.AddCell(k, b.name("lut"), table, ins...)
}

// Standard two-input truth tables (input 0 is table bit position 0).
const (
	ttAND2  = 0b1000
	ttOR2   = 0b1110
	ttXOR2  = 0b0110
	ttNAND2 = 0b0111
	ttXNOR2 = 0b1001
	ttANDN2 = 0b0010 // a AND NOT b
)

// Not, And, Or, Xor, Nand, Xnor, AndNot emit single gates.
func (b *Builder) Not(a netlist.NetID) netlist.NetID     { return b.LUT(0b01, a) }
func (b *Builder) Buf(a netlist.NetID) netlist.NetID     { return b.LUT(0b10, a) }
func (b *Builder) And(a, c netlist.NetID) netlist.NetID  { return b.LUT(ttAND2, a, c) }
func (b *Builder) Or(a, c netlist.NetID) netlist.NetID   { return b.LUT(ttOR2, a, c) }
func (b *Builder) Xor(a, c netlist.NetID) netlist.NetID  { return b.LUT(ttXOR2, a, c) }
func (b *Builder) Nand(a, c netlist.NetID) netlist.NetID { return b.LUT(ttNAND2, a, c) }
func (b *Builder) Xnor(a, c netlist.NetID) netlist.NetID { return b.LUT(ttXNOR2, a, c) }

// AndNot computes a AND NOT c.
func (b *Builder) AndNot(a, c netlist.NetID) netlist.NetID { return b.LUT(ttANDN2, a, c) }

// And3 computes a AND c AND d in one LUT3.
func (b *Builder) And3(a, c, d netlist.NetID) netlist.NetID {
	return b.LUT(0b10000000, a, c, d)
}

// Or3 computes a OR c OR d in one LUT3.
func (b *Builder) Or3(a, c, d netlist.NetID) netlist.NetID {
	return b.LUT(0b11111110, a, c, d)
}

// Mux2 selects a when sel=0, c when sel=1 (one LUT3; sel is input 2).
func (b *Builder) Mux2(sel, a, c netlist.NetID) netlist.NetID {
	// index = a + 2c + 4sel; out = sel ? c : a.
	return b.LUT(0b11001010, a, c, sel)
}

// MuxBus2 muxes two equal-width buses.
func (b *Builder) MuxBus2(sel netlist.NetID, a, c []netlist.NetID) []netlist.NetID {
	if len(a) != len(c) {
		panic(fmt.Sprintf("rtl: MuxBus2 width mismatch %d vs %d", len(a), len(c)))
	}
	out := make([]netlist.NetID, len(a))
	for i := range a {
		out[i] = b.Mux2(sel, a[i], c[i])
	}
	return out
}

// Reg registers each bit of d through an FDRE with initial value 0.
func (b *Builder) Reg(d []netlist.NetID) []netlist.NetID {
	q := make([]netlist.NetID, len(d))
	for i := range d {
		q[i] = b.M.AddCell(netlist.FDRE, b.name("ff"), 0, d[i])
	}
	return q
}

// Reg1 registers a single net.
func (b *Builder) Reg1(d netlist.NetID) netlist.NetID {
	return b.M.AddCell(netlist.FDRE, b.name("ff"), 0, d)
}

// RegEn builds a clock-enabled register from FDCE primitives: each bit holds
// its value unless en is asserted. The CE pin is dedicated slice routing, so
// this costs flip-flops only — no LUTs.
func (b *Builder) RegEn(en netlist.NetID, d []netlist.NetID) []netlist.NetID {
	q := make([]netlist.NetID, len(d))
	for i := range d {
		q[i] = b.M.AddCell(netlist.FDCE, b.name("ff"), 0, d[i], en)
	}
	return q
}

// RegEn1 registers a single net with a clock enable.
func (b *Builder) RegEn1(en, d netlist.NetID) netlist.NetID {
	return b.M.AddCell(netlist.FDCE, b.name("ff"), 0, d, en)
}

// Mux4 selects one of four inputs in a single LUT6 (4 data + 2 select pins),
// the packing a mapped 4:1 mux achieves.
func (b *Builder) Mux4(sel0, sel1, d0, d1, d2, d3 netlist.NetID) netlist.NetID {
	// Input order: d0,d1,d2,d3,sel0,sel1. Enumerate the truth table.
	var table uint64
	for v := 0; v < 64; v++ {
		s := (v >> 4) & 3
		if (v>>uint(s))&1 == 1 {
			table |= 1 << uint(v)
		}
	}
	return b.LUT(table, d0, d1, d2, d3, sel0, sel1)
}

// MuxWide selects inputs[sel] bitwise using a base-4 tree of LUT6 4:1 muxes
// (with a final 2:1 layer when the select width is odd). The input count
// must be a power of two; sel is little-endian.
func (b *Builder) MuxWide(sel []netlist.NetID, inputs [][]netlist.NetID) []netlist.NetID {
	if len(inputs) == 0 || len(inputs) != 1<<len(sel) {
		panic(fmt.Sprintf("rtl: MuxWide needs %d inputs for %d select bits, got %d",
			1<<len(sel), len(sel), len(inputs)))
	}
	layer := inputs
	level := 0
	for len(layer) >= 4 && level+1 < len(sel) {
		next := make([][]netlist.NetID, len(layer)/4)
		for i := range next {
			width := len(layer[4*i])
			out := make([]netlist.NetID, width)
			for bit := 0; bit < width; bit++ {
				out[bit] = b.Mux4(sel[level], sel[level+1],
					layer[4*i][bit], layer[4*i+1][bit], layer[4*i+2][bit], layer[4*i+3][bit])
			}
			next[i] = out
		}
		layer = next
		level += 2
	}
	for len(layer) > 1 {
		next := make([][]netlist.NetID, len(layer)/2)
		for i := range next {
			next[i] = b.MuxBus2(sel[level], layer[2*i], layer[2*i+1])
		}
		layer = next
		level++
	}
	return layer[0]
}

// DSP emits one DSP48 multiply-accumulate block: out = a×b (+ cascade). The
// returned net is the block's P output (a representative net; the IR keeps
// one net per port bundle). extra carries the remaining operand-bus bits so
// the block genuinely consumes its full port widths.
func (b *Builder) DSP(a, c, cascade netlist.NetID, extra ...netlist.NetID) netlist.NetID {
	ins := append([]netlist.NetID{a, c, cascade}, extra...)
	return b.M.AddCell(netlist.DSP48, b.name("dsp"), 0, ins...)
}

// DSPBus emits one DSP48 consuming two full operand buses plus a cascade.
func (b *Builder) DSPBus(a, c []netlist.NetID, cascade netlist.NetID) netlist.NetID {
	ins := make([]netlist.NetID, 0, len(a)+len(c)+1)
	ins = append(ins, a...)
	ins = append(ins, c...)
	ins = append(ins, cascade)
	return b.M.AddCell(netlist.DSP48, b.name("dsp"), 0, ins...)
}

// BRAM emits one block RAM with address/data/write-enable inputs and returns
// its read-data net. Init seeds the modeled content (it lands in the
// bitstream's BRAM initialization frames). extra carries further address or
// data bits.
func (b *Builder) BRAM(addr, din, we netlist.NetID, init uint64, extra ...netlist.NetID) netlist.NetID {
	ins := append([]netlist.NetID{addr, din, we}, extra...)
	return b.M.AddCell(netlist.RAMB, b.name("bram"), init, ins...)
}

// Input adds a primary input bus of the given width.
func (b *Builder) Input(width int) []netlist.NetID { return b.M.AddInputBus(width) }

// Input1 adds a single-bit primary input.
func (b *Builder) Input1() netlist.NetID { return b.M.AddInput() }

// Output marks a bus as primary outputs.
func (b *Builder) Output(bus []netlist.NetID) {
	for _, n := range bus {
		b.M.MarkOutput(n)
	}
}

// Finish validates the module and returns it; it panics on validation errors
// because generator output is program-constructed, not user input.
func (b *Builder) Finish() *netlist.Module {
	if err := b.M.Validate(); err != nil {
		panic(err)
	}
	return b.M
}
