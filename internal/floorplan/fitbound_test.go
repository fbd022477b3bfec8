package floorplan

import (
	"testing"

	"repro/internal/device"
)

func fabricFor(t *testing.T, layout string, rows int) *device.Fabric {
	t.Helper()
	dev, err := device.New(device.Spec{Name: "T", Family: device.Virtex5, Rows: rows, Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	return &dev.Fabric
}

func TestRunIndexCounts(t *testing.T) {
	// Three allowed runs: [C C D C], [B C C], [C]; IOB and CLK break runs.
	f := fabricFor(t, "I C*2 D C I B C*2 K C I", 2)
	ix := f.WindowIndex()
	if len(ix.Runs()) != 3 {
		t.Fatalf("Runs() = %d, want 3", len(ix.Runs()))
	}

	cases := []struct {
		need Need
		want bool
	}{
		{Need{}, true},
		{Need{CLB: 3, DSP: 1}, true},   // first run
		{Need{CLB: 2, BRAM: 1}, true},  // second run
		{Need{CLB: 4}, false},          // no run has 4 CLB columns
		{Need{DSP: 1, BRAM: 1}, false}, // DSP and BRAM never share a run
		{Need{DSP: 2}, false},
		{Need{CLB: 1, DSP: 1, BRAM: 1}, false},
	}
	for _, c := range cases {
		if got := ix.CanHold(c.need.Composition()); got != c.want {
			t.Errorf("CanHold(%+v) = %v, want %v", c.need, got, c.want)
		}
	}
}

// TestRunIndexNecessaryForFindWindow is the soundness property the
// branch-and-bound engine relies on: whenever FindWindow succeeds, the
// window index's CanHold must accept the need's per-kind composition. (The converse need not
// hold — CanHold ignores ordering — which is fine for an admissible bound.)
func TestRunIndexNecessaryForFindWindow(t *testing.T) {
	f := fabricFor(t, "I C*3 D C*2 I C*2 B C I", 3)
	ix := f.WindowIndex()
	needs := []Need{
		{CLB: 1}, {CLB: 3}, {CLB: 5, DSP: 1}, {CLB: 2, BRAM: 1},
		{CLB: 4, BRAM: 1}, {DSP: 1, BRAM: 1}, {CLB: 6},
	}
	for h := 1; h <= 3; h++ {
		for _, need := range needs {
			if w, ok := FindWindow(f, h, need); ok && !ix.CanHold(need.Composition()) {
				t.Errorf("FindWindow(h=%d) placed %+v at %+v but CanHold = false", h, need, w)
			}
		}
	}
	// And the structural cases CanHold rejects must indeed have no window at
	// any height.
	for _, need := range []Need{{DSP: 1, BRAM: 1}, {CLB: 6}} {
		if ix.CanHold(need.Composition()) {
			t.Fatalf("CanHold(%+v) unexpectedly true", need)
		}
		for h := 1; h <= 3; h++ {
			if w, ok := FindWindow(f, h, need); ok {
				t.Errorf("FindWindow(h=%d, %+v) found %+v despite CanHold = false", h, need, w)
			}
		}
	}
}
