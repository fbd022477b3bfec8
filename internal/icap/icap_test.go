package icap

import (
	"testing"
	"testing/quick"
	"time"
)

func TestPortThroughput(t *testing.T) {
	if got := ICAP32.BytesPerSecond(); got != 400e6 {
		t.Errorf("ICAP-32 throughput = %g B/s, want 400e6 (32 bits @ 100 MHz)", got)
	}
	if JTAG.BytesPerSecond() >= SelectMAP8.BytesPerSecond() {
		t.Error("JTAG should be slower than SelectMAP")
	}
}

// TestSizeModelBounds: the size model is bound by the slower of media and
// port, plus latency.
func TestSizeModelBounds(t *testing.T) {
	const bytes = 4_000_000
	fast := SizeModel{Port: ICAP32, Media: MediaBRAM}
	slow := SizeModel{Port: ICAP32, Media: MediaCompactFlash}
	if fast.Estimate(bytes) >= slow.Estimate(bytes) {
		t.Error("BRAM-sourced transfer should beat CompactFlash")
	}
	// BRAM (400 MB/s) saturates the ICAP (400 MB/s): 4 MB in ~10 ms.
	got := fast.Estimate(bytes)
	if got < 9*time.Millisecond || got > 11*time.Millisecond {
		t.Errorf("BRAM/ICAP 4MB transfer = %v, want ~10ms", got)
	}
	// CompactFlash at 4 MB/s: ~1 s.
	got = slow.Estimate(bytes)
	if got < 900*time.Millisecond || got > 1100*time.Millisecond {
		t.Errorf("CF 4MB transfer = %v, want ~1s", got)
	}
}

// TestClausBusyFactor: higher contention slows the transfer proportionally.
func TestClausBusyFactor(t *testing.T) {
	const bytes = 400_000
	free := ClausModel{Port: ICAP32, BusyFactor: 0}
	half := ClausModel{Port: ICAP32, BusyFactor: 0.5}
	if got, want := free.Estimate(bytes), time.Millisecond; got != want {
		t.Errorf("uncontended transfer = %v, want %v", got, want)
	}
	if got, want := half.Estimate(bytes), 2*time.Millisecond; got != want {
		t.Errorf("50%% busy transfer = %v, want %v", got, want)
	}
	sat := ClausModel{Port: ICAP32, BusyFactor: 1}
	if sat.Estimate(bytes) < time.Hour {
		t.Error("fully contended port should never finish")
	}
}

// TestPapadimitriouErrorBand: the survey model's measured error lands 30-60%
// above its estimate, as the paper's §II recounts.
func TestPapadimitriouErrorBand(t *testing.T) {
	m := PapadimitriouModel{Media: MediaDDRSDRAM, ErrorFactor: 0.45}
	const bytes = 1_000_000
	est := m.Estimate(bytes)
	meas := m.MeasuredError(bytes)
	ratio := float64(meas)/float64(est) - 1
	if ratio < 0.3 || ratio > 0.6 {
		t.Errorf("error band = %.0f%%, want 30-60%%", ratio*100)
	}
}

// TestFaRMOverlap: FaRM's overlapped prefetch beats the sequential size
// model on slow media and compression helps further.
func TestFaRMOverlap(t *testing.T) {
	const bytes = 1_000_000
	seq := SizeModel{Port: ICAP32, Media: MediaSystemACE}
	farm := FaRMModel{Port: ICAP32, Media: MediaSystemACE, Setup: 10 * time.Microsecond, CompressionRatio: 1}
	if farm.Estimate(bytes) > seq.Estimate(bytes) {
		t.Errorf("FaRM %v should not lose to sequential %v", farm.Estimate(bytes), seq.Estimate(bytes))
	}
	comp := farm
	comp.CompressionRatio = 0.5
	if comp.Estimate(bytes) >= farm.Estimate(bytes) {
		t.Error("compression should shorten media-bound transfers")
	}
}

// TestLiuDMAvsPIO: the DMA design dominates PIO, the FPL'09 result.
func TestLiuDMAvsPIO(t *testing.T) {
	const bytes = 500_000
	dma := LiuModel{Port: ICAP32, DMA: true, DMASetup: 5 * time.Microsecond}
	pio := LiuModel{Port: ICAP32, DMA: false, PIOBandwidth: 12e6}
	if dma.Estimate(bytes) >= pio.Estimate(bytes) {
		t.Errorf("DMA (%v) should beat PIO (%v)", dma.Estimate(bytes), pio.Estimate(bytes))
	}
}

// TestEstimatorMonotonicity property: every estimator is non-decreasing in
// bitstream size.
func TestEstimatorMonotonicity(t *testing.T) {
	ests := []Estimator{
		SizeModel{Port: ICAP32, Media: MediaDDRSDRAM},
		ClausModel{Port: ICAP32, BusyFactor: 0.3},
		PapadimitriouModel{Media: MediaCompactFlash, ErrorFactor: 0.4},
		FaRMModel{Port: ICAP32, Media: MediaBRAM, Setup: time.Microsecond, CompressionRatio: 1},
		LiuModel{Port: ICAP32, DMA: true, DMASetup: time.Microsecond},
		LiuModel{Port: ICAP32, DMA: false, PIOBandwidth: 8e6},
	}
	prop := func(a, b uint32) bool {
		x, y := int(a%10_000_000), int(b%10_000_000)
		if x > y {
			x, y = y, x
		}
		for _, e := range ests {
			if e.Estimate(x) > e.Estimate(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	for _, e := range ests {
		if e.Name() == "" {
			t.Error("estimator with empty name")
		}
	}
}
