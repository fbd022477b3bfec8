package service

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/service/api"
)

// FuzzRequestDecoders feeds one body to all four request decoders, as costd
// would on each endpoint, and runs every check costd runs before an engine
// starts: Validate, then the explore key (Canonicalized, CanonicalKey) or
// the simulate module set and mix (simSpecs, simMix). Nothing may panic,
// and every request these checks accept must name at least one module or
// item and stay inside the api limits (items, PRMs, workers, jobs, slots and
// mix means). The seeds are the request bodies
// CI's service and observability smoke jobs send, one bitstream batch, and
// each input that has failed the target.
func FuzzRequestDecoders(f *testing.F) {
	for _, body := range []string{
		`{"device":"XC6VLX75T","prms":[{"req":{"luts":500,"ffs":400}}]}`,
		`{"device":"XC6VLX75T","prms":[
			{"name":"FIR","req":{"lut_ff_pairs":1300,"luts":1156,"ffs":889,"dsps":4,"brams":2}},
			{"name":"MIPS","req":{"lut_ff_pairs":2617,"luts":2332,"ffs":1698}}]}`,
		`{"device":"XC6VLX75T","items":[{"h":1,"w_clb":1}]}`,
		`{"device":"XC6VLX75T","synthetic_n":6,"options":{"workers":2}}`,
		`{"device":"XC6VLX75T","synthetic_n":10,"options":{"workers":1}}`,
		`{"device":"XC6VLX75T","synthetic_n":3,"policy":"reconfig",
			"mix":{"jobs":400,"seed":42,"arrival":"bursty","mean_exec_us":200,"mean_gap_us":50},
			"snapshot_every":100}`,
		`{"device":"XC6VLX75T","synthetic_n":3,"summary_only":true,
			"mix":{"jobs":200,"seed":11,"mean_exec_us":120,"mean_gap_us":30}}`,
		// A negative synthetic_n once passed Validate, and costd answered an
		// exploration of no modules with 200 and an empty front.
		`{"device":"XC6VLX75T","synthetic_n":-3}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var prr api.PRRRequest
		if json.Unmarshal(body, &prr) == nil && prr.Validate() == nil {
			if n := len(prr.PRMs); n < 1 || n > api.MaxBatchItems {
				t.Fatalf("accepted a prr batch of %d PRMs", n)
			}
		}
		var bit api.BitstreamRequest
		if json.Unmarshal(body, &bit) == nil && bit.Validate() == nil {
			if n := len(bit.Items); n < 1 || n > api.MaxBatchItems {
				t.Fatalf("accepted a bitstream batch of %d items", n)
			}
		}
		var exp api.ExploreRequest
		if json.Unmarshal(body, &exp) == nil && exp.Validate() == nil {
			canon := exp.Canonicalized()
			if n := max(len(canon.PRMs), canon.SyntheticN); n < 1 || n > api.MaxExplorePRMs {
				t.Fatalf("accepted an explore over %d PRMs", n)
			}
			if w := exp.Options.Workers; w < 0 || w > api.MaxExploreWorkers {
				t.Fatalf("accepted an explore on %d workers", w)
			}
			if key := api.CanonicalKey("explore", &exp); !strings.HasPrefix(key, "explore@") {
				t.Fatalf("explore key %q", key)
			}
		}
		var sr api.SimulateRequest
		if json.Unmarshal(body, &sr) == nil && sr.Validate() == nil {
			specs, _ := simSpecs(&sr)
			if _, err := simMix(&sr, len(specs)); err != nil {
				return // a 400, like Validate's
			}
			limit := api.MaxSimPRMs
			if sr.CoExplore {
				limit = api.MaxExplorePRMs
			}
			if n := len(specs); n < 1 || n > limit {
				t.Fatalf("accepted a simulation over %d PRMs", n)
			}
			if j := sr.Mix.Jobs; j < 1 || j > api.MaxSimJobs {
				t.Fatalf("accepted a mix of %d jobs", j)
			}
			if s := sr.Slots; s < 0 || s > api.MaxSimSlots {
				t.Fatalf("accepted %d slots", s)
			}
			for _, us := range []int64{sr.Mix.MeanGapUS, sr.Mix.MeanExecUS} {
				if us < 0 || us > api.MaxSimMeanUS {
					t.Fatalf("accepted a mix mean of %d µs", us)
				}
			}
			if w := sr.Options.Workers; w < 0 || w > api.MaxExploreWorkers {
				t.Fatalf("accepted a simulation on %d workers", w)
			}
		}
	})
}

// FuzzSnapshotLine: for any snapshot with a finite icap_busy, the line
// appendSnapshotLine writes is byte for byte the line json.Encoder writes
// for the same snapshot event. The seeds cover an omitted org and policy,
// every float format switch, negative zero, and policy strings that need
// HTML, control, U+2028 and invalid UTF-8 escapes.
func FuzzSnapshotLine(f *testing.F) {
	f.Add(0, "", 0, int64(0), 0, 0, 0, 0, int64(0), int64(0), 0.0, int64(0))
	f.Add(3, "reconfig", 7, int64(19232840), 48, 24, 24, 1, int64(19), int64(2), 0.5106026983014469, int64(9249672))
	f.Add(-1, "a<b>&\"c\"\\", -5, int64(-1), -2, 3, 4, 5, int64(-6), int64(7), 1e-7, int64(-8))
	f.Add(1, "\x00\x1f\b\f\n\r\t\x7f", 0, int64(0), 0, 0, 0, 0, int64(0), int64(0), 1e21, int64(0))
	f.Add(2, "  \xff\xfe日本", 1, int64(1), 1, 1, 1, 1, int64(1), int64(1), math.Copysign(0, -1), int64(1))
	f.Add(4, "fcfs", 1<<40, int64(math.MaxInt64), 9, 9, 9, 9, int64(math.MinInt64), int64(0), -123456.789e-12, int64(1))
	f.Fuzz(func(t *testing.T, org int, policy string, seq int, nowNS int64, submitted, completed, ready, running int,
		reconfigs, preemptions int64, icapBusy float64, meanWaitNS int64) {
		if math.IsNaN(icapBusy) || math.IsInf(icapBusy, 0) {
			return
		}
		s := api.SimSnapshot{Org: org, Policy: policy, Seq: seq, NowNS: nowNS, Submitted: submitted,
			Completed: completed, Ready: ready, Running: running, Reconfigs: reconfigs,
			Preemptions: preemptions, ICAPBusy: icapBusy, MeanWaitNS: meanWaitNS}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(api.SimEvent{Snapshot: &s}); err != nil {
			t.Fatal(err)
		}
		if got := appendSnapshotLine(nil, &s); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendSnapshotLine\n%s\njson.Encoder\n%s", got, want.Bytes())
		}
	})
}
