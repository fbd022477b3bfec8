package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestTable2(t *testing.T) {
	out := Table2().String()
	for _, want := range []string{"CLB_col", "LUT_CLB", "20", "40"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestTable4(t *testing.T) {
	out := Table4().String()
	for _, want := range []string{"CF_CLB", "FR_size", "Bytes_word", "41", "81"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV missing %q:\n%s", want, out)
		}
	}
}

// TestTable5ModelMatchesPaper: every bracketed paper value in the emitted
// Table V equals the model value (the row renders as "x [x]"), except RU
// rows where ±1 point is allowed.
func TestTable5ModelMatchesPaper(t *testing.T) {
	tbl, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		isRU := strings.HasPrefix(row[0], "RU_")
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "[") {
				continue
			}
			parts := strings.SplitN(strings.TrimSuffix(cell, "]"), " [", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed cell %q", cell)
			}
			if !isRU && parts[0] != parts[1] {
				t.Errorf("row %s: model %q != paper %q", row[0], parts[0], parts[1])
			}
		}
	}
}

func TestTable6(t *testing.T) {
	tbl, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("Table VI rows = %d, want 6", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		// DSP and BRAM columns must read 0.0% saved.
		if !strings.HasPrefix(row[5], "0.0%") || !strings.HasPrefix(row[6], "0.0%") {
			t.Errorf("%s: DSP/BRAM savings nonzero: %v", row[0], row)
		}
	}
}

func TestTable7AllExact(t *testing.T) {
	tbl, err := Table7()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("Table VII rows = %d, want 6", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[4] != "true" {
			t.Errorf("%s/%s: model size %s != generated %s", row[0], row[1], row[2], row[3])
		}
	}
}

func TestTable8(t *testing.T) {
	tbl, err := Table8()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("Table VIII rows = %d, want 6", len(tbl.Rows))
	}
}

func TestFigure1(t *testing.T) {
	out, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CLB_req = ceil(1300 / 8) = 163", "H=1", "H=5", "PRR_size=15"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 narration missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2(t *testing.T) {
	out, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"initial words", "final words", "BRAM", "CFG r1", "CFG r2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 dump missing %q:\n%s", want, out)
		}
	}
}

func TestAblations(t *testing.T) {
	h, err := AblationHSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Rows) != 3 {
		t.Errorf("H sweep rows = %d, want device rows (3)", len(h.Rows))
	}
	if _, err := AblationSharedPRR(); err != nil {
		t.Error(err)
	}
	if _, err := AblationShapes(); err != nil {
		t.Error(err)
	}
	p, err := AblationPortability()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range p.Rows {
		if row[5] != "true" {
			t.Errorf("portability: %s (%s) not validated exactly:\n%s", row[0], row[1], p.String())
		}
	}
	if _, err := AblationReconfigModels(); err != nil {
		t.Error(err)
	}
	_, prod, err := AblationDSE()
	if err != nil {
		t.Fatal(err)
	}
	if prod.SpeedupFactor < 1000 {
		t.Errorf("DSE speedup = %.0f, want >= 1000", prod.SpeedupFactor)
	}
}

// TestOversizeSweep reproduces the §I pathology (A5): as the shared PRR
// grows, its bitstream grows, PR throughput degrades monotonically, and PR
// loses to full reconfiguration from 8x on.
func TestOversizeSweep(t *testing.T) {
	o, err := AblationOversize()
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Rows) != 7 {
		t.Fatalf("A5 rows = %d, want 7 oversize factors", len(o.Rows))
	}
	if o.Rows[0][4] != "true" {
		t.Error("right-sized PR should win the oversize sweep's first point")
	}
	if o.Rows[len(o.Rows)-1][4] != "false" {
		t.Error("the most oversized PRR should lose to full reconfiguration")
	}
	cell := func(i, j int) float64 {
		v, err := strconv.ParseFloat(o.Rows[i][j], 64)
		if err != nil {
			t.Fatalf("A5 row %d column %d: %v", i, j, err)
		}
		return v
	}
	for i := 1; i < len(o.Rows); i++ {
		if cell(i, 1) <= cell(i-1, 1) {
			t.Errorf("bitstream bytes not growing at factor %s", o.Rows[i][0])
		}
		if cell(i, 2) > cell(i-1, 2) {
			t.Errorf("PR throughput increased at factor %s", o.Rows[i][0])
		}
	}
	crossover := ""
	for _, row := range o.Rows {
		if row[4] == "false" {
			crossover = row[0]
			break
		}
	}
	if crossover != "8" {
		t.Errorf("PR stops beating full reconfiguration at %sx, want 8x", crossover)
	}
	if got := o.String(); got != a5Golden {
		t.Errorf("A5 table changed:\n%s\nwant:\n%s", got, a5Golden)
	}
}

// a5Golden pins the A5 table byte for byte: any change to the sweep's
// platforms, job stream, estimator or scheduling policy shows here.
const a5Golden = "A5 — oversized shared PRR vs full reconfiguration (XC5VLX110T, round-robin)\n" +
	"oversize factor  bitstream bytes  PR jobs/s  full-reconfig jobs/s  PR wins\n" +
	"--------------------------------------------------------------------------\n" +
	"1                785824           338.3      79.0                  true   \n" +
	"2                1287664          221.0      79.0                  true   \n" +
	"4                2291344          130.5      79.0                  true   \n" +
	"8                4298704          71.8       79.0                  false  \n" +
	"16               8313424          37.8       79.0                  false  \n" +
	"32               16342864         19.4       79.0                  false  \n" +
	"64               32401744         9.8        79.0                  false  \n"
