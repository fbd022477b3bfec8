package netlist

import "fmt"

// NetID identifies a net within one module. Net 0 is invalid; valid nets are
// created with Module.NewNet.
type NetID int32

// CellID identifies a cell within one module (an index into Module.Cells).
type CellID int32

// Invalid sentinel values.
const (
	NoNet  NetID  = 0
	NoCell CellID = -1
)

// Cell is one primitive instance. Init carries the LUT truth table (for LUT
// kinds) or the flip-flop initial value (for FDRE), both of which end up in
// the configuration frames of the partial bitstream.
type Cell struct {
	Kind   PrimKind
	Name   string
	Inputs []NetID
	Output NetID
	Init   uint64
}

// Module is a self-contained primitive netlist with primary ports. Cells and
// nets are stored in slices for cache-friendly traversal; the driver map is
// maintained incrementally.
type Module struct {
	Name string

	// Inputs and Outputs are the primary port nets. Input nets have no
	// driving cell; output nets must be driven.
	Inputs  []NetID
	Outputs []NetID

	Cells []Cell

	// netCount is the highest allocated NetID.
	netCount NetID
	// driver maps each net to the cell driving it, or NoCell for primary
	// inputs and undriven nets.
	driver map[NetID]CellID
}

// NewModule returns an empty module with the given name.
func NewModule(name string) *Module {
	return &Module{Name: name, driver: make(map[NetID]CellID)}
}

// NewNet allocates a fresh net.
func (m *Module) NewNet() NetID {
	m.netCount++
	return m.netCount
}

// NumNets returns the number of allocated nets.
func (m *Module) NumNets() int { return int(m.netCount) }

// AddInput allocates a net and registers it as a primary input.
func (m *Module) AddInput() NetID {
	n := m.NewNet()
	m.Inputs = append(m.Inputs, n)
	return n
}

// AddInputBus allocates width nets and registers them as primary inputs.
func (m *Module) AddInputBus(width int) []NetID {
	nets := make([]NetID, width)
	for i := range nets {
		nets[i] = m.AddInput()
	}
	return nets
}

// MarkOutput registers an existing net as a primary output.
func (m *Module) MarkOutput(n NetID) {
	m.Outputs = append(m.Outputs, n)
}

// AddCell appends a primitive instance driving a fresh net and returns that
// net. The input slice is retained, not copied.
func (m *Module) AddCell(kind PrimKind, name string, init uint64, inputs ...NetID) NetID {
	out := m.NewNet()
	m.addCellDriving(kind, name, init, out, inputs)
	return out
}

// AddCellDriving appends a primitive instance driving an existing net.
// It panics if the net already has a driver, which indicates a generator bug.
func (m *Module) AddCellDriving(kind PrimKind, name string, init uint64, out NetID, inputs ...NetID) {
	m.addCellDriving(kind, name, init, out, inputs)
}

func (m *Module) addCellDriving(kind PrimKind, name string, init uint64, out NetID, inputs []NetID) {
	if d, dup := m.driver[out]; dup && d != NoCell {
		panic(fmt.Sprintf("netlist: %s: net %d already driven by cell %d", m.Name, out, d))
	}
	m.Cells = append(m.Cells, Cell{Kind: kind, Name: name, Inputs: inputs, Output: out, Init: init})
	m.driver[out] = CellID(len(m.Cells) - 1)
}

// Driver returns the cell driving net n, or NoCell if n is undriven (a
// primary input or a dangling net).
func (m *Module) Driver(n NetID) CellID {
	if d, ok := m.driver[n]; ok {
		return d
	}
	return NoCell
}

// RebuildDrivers reconstructs the driver index from the cell list. Transform
// passes that rewrite Cells wholesale (e.g. the PAR optimizer) call this
// after surgery.
func (m *Module) RebuildDrivers() {
	m.driver = make(map[NetID]CellID, len(m.Cells))
	for i := range m.Cells {
		m.driver[m.Cells[i].Output] = CellID(i)
	}
}

// Fanout returns, for every net, the list of cells reading it.
func (m *Module) Fanout() map[NetID][]CellID {
	fo := make(map[NetID][]CellID, m.NumNets())
	for i := range m.Cells {
		for _, in := range m.Cells[i].Inputs {
			fo[in] = append(fo[in], CellID(i))
		}
	}
	return fo
}

// Clone returns a deep copy of the module. Transform passes mutate clones so
// the synthesis-time netlist remains available for comparison.
func (m *Module) Clone() *Module {
	c := &Module{
		Name:     m.Name,
		Inputs:   append([]NetID(nil), m.Inputs...),
		Outputs:  append([]NetID(nil), m.Outputs...),
		Cells:    make([]Cell, len(m.Cells)),
		netCount: m.netCount,
		driver:   make(map[NetID]CellID, len(m.driver)),
	}
	for i, cell := range m.Cells {
		cell.Inputs = append([]NetID(nil), cell.Inputs...)
		c.Cells[i] = cell
	}
	for n, d := range m.driver {
		c.driver[n] = d
	}
	return c
}
