package fault

import (
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	spec, err := Parse([]byte(`{
		"seed": 42,
		"crashes": [{"rank": 2, "step": 6}],
		"stalls": [{"rank": 1, "step": 3, "seconds": 0.002}],
		"messages": {"drop": 0.01, "corrupt": 0.005, "delay": 0.02,
			"delay_seconds": 1e-6, "retransmit_seconds": 1e-5}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 || len(spec.Crashes) != 1 || spec.Crashes[0].Rank != 2 || spec.Crashes[0].Step != 6 {
		t.Fatalf("parsed %+v", spec)
	}
	if spec.Stalls[0].Seconds != 0.002 {
		t.Fatalf("stall seconds %v", spec.Stalls[0].Seconds)
	}
	if spec.Messages.Corrupt != 0.005 {
		t.Fatalf("corrupt rate %v", spec.Messages.Corrupt)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct{ name, json, wantErr string }{
		{"unknown-field", `{"sed": 1}`, "unknown"},
		{"trailing-doc", `{"seed": 1}{"seed": 2}`, "trailing"},
		{"rate-above-one", `{"messages": {"drop": 1.5}}`, "drop"},
		{"rates-sum-above-one", `{"messages": {"drop": 0.6, "corrupt": 0.6}}`, "sum"},
		{"negative-rate", `{"messages": {"delay": -0.1}}`, "delay"},
		{"delay-without-duration", `{"messages": {"delay": 0.1}}`, "delay_seconds"},
		{"crash-step-zero", `{"crashes": [{"rank": 0, "step": 0}]}`, "step"},
		{"duplicate-crash-rank", `{"crashes": [{"rank": 1, "step": 2}, {"rank": 1, "step": 4}]}`, "rank"},
		{"negative-stall", `{"stalls": [{"rank": 0, "step": 1, "seconds": -1}]}`, "stall"},
		{"bad-window", `{"messages": {"drop": 0.1, "from_vt": 2, "to_vt": 1}}`, "window"},
		{"not-json", `hello`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("accepted %q", tc.json)
			}
			if tc.wantErr != "" && !strings.Contains(strings.ToLower(err.Error()), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckRunNeedsASurvivor: a scenario that crashes every rank leaves
// no one to finish the run, so it is refused against that world size; the
// same crashes with one rank more pass.
func TestCheckRunNeedsASurvivor(t *testing.T) {
	spec, err := Parse([]byte(`{"crashes": [{"rank": 0, "step": 2}, {"rank": 1, "step": 2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	err = spec.CheckRun(2, 1)
	if err == nil || !strings.Contains(err.Error(), "survives") {
		t.Fatalf("CheckRun(2) = %v, want an error asking for a rank that survives", err)
	}
	if err := spec.CheckRun(3, 1); err != nil {
		t.Fatalf("CheckRun(3) = %v, want nil (rank 2 survives)", err)
	}
}

func TestLoadInline(t *testing.T) {
	spec, err := Load(`{"seed": 7, "messages": {"drop": 0.1, "retransmit_seconds": 1e-5}}`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 || spec.Messages.Drop != 0.1 {
		t.Fatalf("parsed %+v", spec)
	}
}

// FuzzParseSpec: arbitrary bytes must parse or error, never panic.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"seed": 1}`))
	f.Add([]byte(`{"crashes": [{"rank": 0, "step": 1}]}`))
	f.Add([]byte(`{"messages": {"drop": 0.5, "corrupt": 0.5}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"messages": {"drop": 1e309}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err == nil {
			// Whatever parses must satisfy its own validator.
			if verr := spec.Validate(); verr != nil {
				t.Fatalf("Parse accepted a spec Validate rejects: %v", verr)
			}
		}
	})
}
