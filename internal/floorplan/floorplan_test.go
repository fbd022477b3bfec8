package floorplan

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

// TestFindWindowPaperPRRs reproduces the window placements behind Table V:
// FIR on the LX110T needs {2xCLB+1xDSP} (found), MIPS {17xCLB+1xDSP+2xBRAM}
// at H=1, and the FIR H=1..4 needs fail.
func TestFindWindowPaperPRRs(t *testing.T) {
	f := &device.XC5VLX110T.Fabric
	for _, clbs := range []int{9, 5, 3} {
		if _, ok := FindWindow(f, 1, Need{CLB: clbs, DSP: 1}); ok {
			t.Errorf("{%dxCLB+1xDSP} should be infeasible on LX110T", clbs)
		}
	}
	reg, ok := FindWindow(f, 5, Need{CLB: 2, DSP: 1})
	if !ok {
		t.Fatal("FIR window {2xCLB+1xDSP} not found at H=5")
	}
	if reg.Row != 1 {
		t.Errorf("Fig. 1 search must start at the fabric bottom; found row %d", reg.Row)
	}
	if reg.H != 5 || reg.W != 3 {
		t.Errorf("FIR region = %v, want 5x3", reg)
	}
	if _, ok := FindWindow(f, 1, Need{CLB: 17, DSP: 1, BRAM: 2}); !ok {
		t.Error("MIPS window {17xCLB+1xDSP+2xBRAM} not found at H=1")
	}
	if _, ok := FindWindow(f, 1, Need{CLB: 3}); !ok {
		t.Error("SDRAM window {3xCLB} not found at H=1")
	}
}

// TestFindWindowLeftmost: the search returns the leftmost bottom-most match.
func TestFindWindowLeftmost(t *testing.T) {
	f := &device.Fabric{Rows: 2, Columns: device.MustParseLayout("I CC B CC B CC I")}
	reg, ok := FindWindow(f, 1, Need{CLB: 2})
	if !ok || reg.Col != 2 || reg.Row != 1 {
		t.Errorf("leftmost {2xCLB} = %v, %v; want row 1 col 2", reg, ok)
	}
}

// TestFindWindowForbiddenKinds: windows spanning IOB or CLK columns never
// match, even when the composition would otherwise be completable.
func TestFindWindowForbiddenKinds(t *testing.T) {
	f := &device.Fabric{Rows: 1, Columns: device.MustParseLayout("C I C K C")}
	if _, ok := FindWindow(f, 1, Need{CLB: 2}); ok {
		t.Error("window crossing IOB/CLK columns should not match")
	}
	if _, ok := FindWindow(f, 1, Need{CLB: 1}); !ok {
		t.Error("single CLB column should match")
	}
}

// TestFindWindowHoles: a hard-macro hole blocks only the rows it occupies.
func TestFindWindowHoles(t *testing.T) {
	f := &device.Fabric{
		Rows:    3,
		Columns: device.MustParseLayout("CCC"),
		Holes:   map[device.Coord]string{{Row: 1, Col: 2}: "PCIE"},
	}
	reg, ok := FindWindow(f, 1, Need{CLB: 3})
	if !ok {
		t.Fatal("window not found above the hole")
	}
	if reg.Row != 2 {
		t.Errorf("window found at row %d, want 2 (row 1 holed)", reg.Row)
	}
	if _, ok := FindWindow(f, 3, Need{CLB: 3}); ok {
		t.Error("full-height window should be blocked by the hole")
	}
}

// TestFindWindowAvoid: placed regions exclude their tiles.
func TestFindWindowAvoid(t *testing.T) {
	f := &device.Fabric{Rows: 2, Columns: device.MustParseLayout("CCCC")}
	first, ok := FindWindow(f, 1, Need{CLB: 4})
	if !ok || first.Row != 1 {
		t.Fatalf("first region = %v, %v", first, ok)
	}
	second, ok := FindWindow(f, 1, Need{CLB: 4}, first)
	if !ok || second.Row != 2 {
		t.Fatalf("second region = %v, %v; want row 2", second, ok)
	}
	if _, ok := FindWindow(f, 1, Need{CLB: 4}, first, second); ok {
		t.Error("third region should not fit")
	}
}

// TestFindWindowTrace: the trace records failed probes before the success,
// with reasons.
func TestFindWindowTrace(t *testing.T) {
	f := &device.Fabric{Rows: 1, Columns: device.MustParseLayout("I C C D B")}
	reg, ok, steps := FindWindowTrace(f, 1, Need{CLB: 1, DSP: 1})
	if !ok {
		t.Fatal("window not found")
	}
	if reg.Col != 3 {
		t.Errorf("window at col %d, want 3", reg.Col)
	}
	if len(steps) < 2 {
		t.Fatalf("trace has %d steps, want >= 2", len(steps))
	}
	if !steps[len(steps)-1].Found {
		t.Error("last trace step should be the success")
	}
	sawReason := false
	for _, s := range steps[:len(steps)-1] {
		if s.Found {
			t.Error("non-final step marked found")
		}
		if s.Reason != "" {
			sawReason = true
		}
	}
	if !sawReason {
		t.Error("no failure reasons recorded")
	}
}

// TestRegionOverlap property: overlap is symmetric and self-overlap holds.
func TestRegionOverlap(t *testing.T) {
	prop := func(r1, c1, h1, w1, r2, c2, h2, w2 uint8) bool {
		a := Region{Row: int(r1%10) + 1, Col: int(c1%10) + 1, H: int(h1%4) + 1, W: int(w1%4) + 1}
		b := Region{Row: int(r2%10) + 1, Col: int(c2%10) + 1, H: int(h2%4) + 1, W: int(w2%4) + 1}
		if a.Overlaps(b) != b.Overlaps(a) {
			return false
		}
		return a.Overlaps(a) && b.Overlaps(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionOverlapCases(t *testing.T) {
	a := Region{Row: 1, Col: 1, H: 2, W: 2}
	if a.Overlaps(Region{Row: 3, Col: 1, H: 1, W: 2}) {
		t.Error("vertically adjacent regions reported overlapping")
	}
	if a.Overlaps(Region{Row: 1, Col: 3, H: 2, W: 1}) {
		t.Error("horizontally adjacent regions reported overlapping")
	}
	if !a.Overlaps(Region{Row: 2, Col: 2, H: 2, W: 2}) {
		t.Error("corner-sharing overlap missed")
	}
}

// TestPlaceAll places the paper's three PRRs together on the LX110T.
func TestPlaceAll(t *testing.T) {
	p := NewPlacer(&device.XC5VLX110T.Fabric)
	reqs := []Request{
		{Name: "fir", H: 5, Need: Need{CLB: 2, DSP: 1}},
		{Name: "mips", H: 1, Need: Need{CLB: 17, DSP: 1, BRAM: 2}},
		{Name: "sdram", H: 1, Need: Need{CLB: 3}},
	}
	plan, err := p.PlaceAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Placements) != 3 {
		t.Fatalf("placed %d regions, want 3", len(plan.Placements))
	}
	for i, pl := range plan.Placements {
		if pl.Name != reqs[i].Name {
			t.Errorf("placement %d is %q, want request order preserved (%q)", i, pl.Name, reqs[i].Name)
		}
		for j := i + 1; j < len(plan.Placements); j++ {
			if pl.Region.Overlaps(plan.Placements[j].Region) {
				t.Errorf("placements %q and %q overlap: %v vs %v",
					pl.Name, plan.Placements[j].Name, pl.Region, plan.Placements[j].Region)
			}
		}
	}
}

// TestPlaceAllConflict: two PRRs that both need the single DSP column cannot
// coexist on the LX110T.
func TestPlaceAllConflict(t *testing.T) {
	p := NewPlacer(&device.XC5VLX110T.Fabric)
	reqs := []Request{
		{Name: "a", H: 8, Need: Need{CLB: 2, DSP: 1}},
		{Name: "b", H: 1, Need: Need{CLB: 2, DSP: 1}},
	}
	if _, err := p.PlaceAll(reqs); err == nil {
		t.Error("placements competing for the single DSP column should fail")
	} else if !strings.Contains(err.Error(), "no feasible region") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestPlaceAllReserved: reserved (static-region) tiles are excluded.
func TestPlaceAllReserved(t *testing.T) {
	f := &device.Fabric{Rows: 2, Columns: device.MustParseLayout("CCCC")}
	p := NewPlacer(f, Region{Row: 1, Col: 1, H: 1, W: 4})
	plan, err := p.PlaceAll([]Request{{Name: "x", H: 1, Need: Need{CLB: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Placements[0].Region.Row != 2 {
		t.Errorf("placement should avoid the reserved row: %v", plan.Placements[0].Region)
	}
}

// TestPlaceAllSameNames: requests that share a name are distinct PRRs. Each
// gets its own region, disjoint from the other's, at its own index.
func TestPlaceAllSameNames(t *testing.T) {
	p := NewPlacer(&device.XC5VLX110T.Fabric)
	reqs := []Request{
		{Name: "slot", H: 2, Need: Need{CLB: 3}},
		{Name: "slot", H: 1, Need: Need{CLB: 5}},
	}
	plan, err := p.PlaceAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Placements) != len(reqs) {
		t.Fatalf("placed %d regions, want %d", len(plan.Placements), len(reqs))
	}
	for i, pl := range plan.Placements {
		if pl.Request != reqs[i] {
			t.Errorf("placement %d is for %+v, want %+v", i, pl.Request, reqs[i])
		}
		if pl.Region.H != reqs[i].H {
			t.Errorf("placement %d region %v, want %d rows", i, pl.Region, reqs[i].H)
		}
	}
	if a, b := plan.Placements[0].Region, plan.Placements[1].Region; a.Overlaps(b) {
		t.Errorf("same-named placements overlap: %v vs %v", a, b)
	}
}

// TestFindLShape: on a fabric where 25 CLB column-rows are needed, a 5x5
// rectangle would waste nothing — but for 21 tiles an L (base 3 rows x 5
// cols + ext 2 rows x 3 cols = 21) beats the 25-tile rectangle.
func TestFindLShape(t *testing.T) {
	f := &device.Fabric{Rows: 5, Columns: device.MustParseLayout("CCCCCCCC")}
	l, ok := FindLShape(f, 5, Need{CLB: 21})
	if !ok {
		t.Fatal("no L shape found")
	}
	if l.Tiles() != 21 {
		t.Errorf("L shape uses %d tiles, want exactly 21", l.Tiles())
	}
	if l.Ext.W > l.Base.W {
		t.Errorf("extension wider than base: %v over %v", l.Ext, l.Base)
	}
	if l.Ext.H > 0 && (l.Ext.Col != l.Base.Col || l.Ext.Row != l.Base.Row+l.Base.H) {
		t.Errorf("extension not stacked on base: %v over %v", l.Ext, l.Base)
	}
}

func TestNeedString(t *testing.T) {
	n := Need{CLB: 17, DSP: 1, BRAM: 2}
	if n.Width() != 20 {
		t.Errorf("width = %d, want 20", n.Width())
	}
	if !strings.Contains(n.String(), "17xCLB") {
		t.Errorf("need string = %q", n.String())
	}
}
