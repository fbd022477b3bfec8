package service

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSimulateGoldenStreams pins the exact /v1/simulate bytes of one
// saturated co-exploration (every policy, one worker) and one
// single-platform stream: snapshot, score, done and error lines alike.
// Any change to the engine, the replay order or the line encoding is a
// conscious golden update.
func TestSimulateGoldenStreams(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"coexplore", `{"device":"XC6VLX75T","synthetic_n":6,"co_explore":true,
			"policies":["fcfs","priority","reconfig"],
			"mix":{"jobs":48,"seed":5,"arrival":"uniform","mean_gap_us":60,"mean_exec_us":300,"priority_levels":3},
			"snapshot_every":24,"options":{"workers":1}}`},
		{"single", `{"device":"XC6VLX75T","synthetic_n":3,"slots":2,"policy":"reconfig",
			"mix":{"jobs":200,"seed":42,"arrival":"bursty","mean_exec_us":200,"mean_gap_us":50,"priority_levels":3},
			"snapshot_every":20}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			resp, raw := post(t, ts, "/v1/simulate", tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			golden := filepath.Join("testdata", "simulate_"+tc.name+".ndjson")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("stream differs from %s (re-run with -update if intentional):\n--- got\n%s\n--- want\n%s", golden, raw, want)
			}
		})
	}
}
