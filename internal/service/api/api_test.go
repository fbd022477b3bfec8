package api

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestCanonicalKeyFieldOrderInsensitive: two wire-equivalent bodies that
// differ in field order, whitespace and unknown fields hash to the same key,
// so they coalesce and share cache entries.
func TestCanonicalKeyFieldOrderInsensitive(t *testing.T) {
	bodies := []string{
		`{"device":"XC6VLX75T","prms":[{"name":"FIR","req":{"lut_ff_pairs":1300,"luts":1156,"ffs":889,"dsps":4,"brams":2}}]}`,
		`{
			"prms": [ {"req": {"brams": 2, "dsps": 4, "ffs": 889, "luts": 1156, "lut_ff_pairs": 1300}, "name": "FIR"} ],
			"ignored_unknown_field": true,
			"device": "XC6VLX75T"
		}`,
	}
	keys := make([]string, len(bodies))
	for i, b := range bodies {
		var req PRRRequest
		if err := json.Unmarshal([]byte(b), &req); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		keys[i] = CanonicalKey("prr", &req)
	}
	if keys[0] != keys[1] {
		t.Errorf("equivalent bodies keyed differently:\n  %s\n  %s", keys[0], keys[1])
	}
	if !strings.HasPrefix(keys[0], "prr@") {
		t.Errorf("key %q does not carry its endpoint prefix", keys[0])
	}
}

// TestCanonicalKeyDistinguishes: different payloads and different endpoints
// never share a key.
func TestCanonicalKeyDistinguishes(t *testing.T) {
	a := &PRRRequest{Device: "XC6VLX75T", PRMs: []PRM{{Req: Requirements{LUTs: 100}}}}
	b := &PRRRequest{Device: "XC6VLX75T", PRMs: []PRM{{Req: Requirements{LUTs: 101}}}}
	if CanonicalKey("prr", a) == CanonicalKey("prr", b) {
		t.Error("distinct payloads share a key")
	}
	if CanonicalKey("prr", a) == CanonicalKey("bitstream", a) {
		t.Error("distinct endpoints share a key for the same payload")
	}
}

func TestPRRRequestValidate(t *testing.T) {
	ok := PRRRequest{Device: "d", PRMs: []PRM{{}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	for name, bad := range map[string]PRRRequest{
		"no device": {PRMs: []PRM{{}}},
		"no PRMs":   {Device: "d"},
		"oversized": {Device: "d", PRMs: make([]PRM, MaxBatchItems+1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBitstreamRequestValidate(t *testing.T) {
	ok := BitstreamRequest{Device: "d", Items: []Organization{{H: 1, WCLB: 1}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	for name, bad := range map[string]BitstreamRequest{
		"no device": {Items: []Organization{{}}},
		"no items":  {Device: "d"},
		"oversized": {Device: "d", Items: make([]Organization, MaxBatchItems+1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestExploreRequestValidate(t *testing.T) {
	for name, ok := range map[string]ExploreRequest{
		"explicit PRMs": {Device: "d", PRMs: []PRM{{}, {}}},
		"synthetic":     {Device: "d", SyntheticN: 8},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	for name, bad := range map[string]ExploreRequest{
		"no device":        {SyntheticN: 4},
		"neither workload": {Device: "d"},
		"negative n":       {Device: "d", SyntheticN: -3},
		"both workloads":   {Device: "d", PRMs: []PRM{{}}, SyntheticN: 4},
		"too many PRMs":    {Device: "d", SyntheticN: MaxExplorePRMs + 1},
		"bad symmetry":     {Device: "d", SyntheticN: 4, Options: ExploreOptions{Symmetry: "maybe"}},
		"bad memo":         {Device: "d", SyntheticN: 4, Options: ExploreOptions{Memo: "maybe"}},
		"too many workers": {Device: "d", SyntheticN: 4, Options: ExploreOptions{Workers: MaxExploreWorkers + 1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, mode := range []string{"", "auto", "off"} {
		req := ExploreRequest{Device: "d", SyntheticN: 4, Options: ExploreOptions{Symmetry: mode}}
		if err := req.Validate(); err != nil {
			t.Errorf("symmetry %q rejected: %v", mode, err)
		}
		req = ExploreRequest{Device: "d", SyntheticN: 4, Options: ExploreOptions{Memo: mode}}
		if err := req.Validate(); err != nil {
			t.Errorf("memo %q rejected: %v", mode, err)
		}
	}
}

// TestExploreCanonicalized: canonicalization defaults names by original
// position and sorts by requirement signature, so any permutation of a PRM
// multiset — named or not — maps to one canonical request and one key.
func TestExploreCanonicalized(t *testing.T) {
	fir := Requirements{LUTFFPairs: 1300, LUTs: 1156, FFs: 889, DSPs: 4, BRAMs: 2}
	mips := Requirements{LUTFFPairs: 2617, LUTs: 2332, FFs: 1698}
	req := ExploreRequest{Device: "XC6VLX75T", PRMs: []PRM{
		{Name: "b", Req: mips}, {Req: fir}, {Name: "a", Req: mips}, {Req: fir},
	}}
	canon := req.Canonicalized()
	// Unnamed PRMs were at original positions 1 and 3; FIR sorts before MIPS.
	wantNames := []string{"M1", "M3", "a", "b"}
	for i, want := range wantNames {
		if canon.PRMs[i].Name != want {
			t.Errorf("canonical PRM %d named %q, want %q", i, canon.PRMs[i].Name, want)
		}
	}
	if len(req.PRMs) != 4 || req.PRMs[0].Name != "b" || req.PRMs[1].Name != "" {
		t.Error("Canonicalized mutated the original request")
	}

	// Every permutation of the canonical list keys identically; a different
	// multiset does not.
	permuted := ExploreRequest{Device: req.Device, PRMs: []PRM{
		{Name: "M3", Req: fir}, {Name: "a", Req: mips}, {Name: "M1", Req: fir}, {Name: "b", Req: mips},
	}}
	if CanonicalKey("explore", &req) != CanonicalKey("explore", &permuted) {
		t.Error("permuted PRM lists keyed differently")
	}
	other := ExploreRequest{Device: req.Device, PRMs: append([]PRM{}, canon.PRMs[:3]...)}
	if CanonicalKey("explore", &req) == CanonicalKey("explore", &other) {
		t.Error("different PRM multisets share a key")
	}
}

// TestRequirementsRoundTrip: the wire <-> core conversions are lossless.
func TestRequirementsRoundTrip(t *testing.T) {
	in := Requirements{LUTFFPairs: 1, LUTs: 2, FFs: 3, DSPs: 4, BRAMs: 5}
	if got := RequirementsFrom(in.Core()); got != in {
		t.Errorf("round trip mangled requirements: %+v != %+v", got, in)
	}
}
