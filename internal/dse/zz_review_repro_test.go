package dse

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/icap"
)

// Review repro: group {0,1} passes CanHold but fails EstimateShared
// (composition mismatch), and every later join to it is CanHold-pruned, so
// the priced-group stack is never resized below the infeasible prefix.
func TestReviewReproStaleEvalsStack(t *testing.T) {
	dev, err := device.New(device.Spec{
		Name:   "REVIEW-TIGHT",
		Family: device.Virtex5,
		Rows:   1,
		Layout: "I C*4 I C*2 B C*2 D I C*5 I",
	})
	if err != nil {
		t.Fatal(err)
	}
	prms := []PRM{
		{Name: "A", Req: core.Requirements{LUTFFPairs: 640, LUTs: 600, FFs: 500}},
		{Name: "B", Req: core.Requirements{LUTFFPairs: 160, LUTs: 150, FFs: 120, DSPs: 8}},
		{Name: "C", Req: core.Requirements{LUTFFPairs: 800, LUTs: 700, FFs: 600}},
		{Name: "D", Req: core.Requirements{LUTFFPairs: 800, LUTs: 700, FFs: 600}},
		{Name: "E", Req: core.Requirements{LUTFFPairs: 800, LUTs: 700, FFs: 600}},
	}
	e := &Explorer{Device: dev, Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}

	want := Pareto(e.ExploreAll(prms))
	got, _, err := e.ExploreParetoBB(context.Background(), prms,
		BBOptions{Workers: 1, splitDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("front size %d, want %d", len(got), len(want))
	}
}
