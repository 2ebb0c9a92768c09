package solver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/comm"
	"repro/internal/netmodel"
)

// What the right-hand side reports about itself besides the state: how
// each rank's virtual clock splits over the accounting phases, and which
// profiler regions ran how often. testdata/volume_golden.json was
// recorded with the volume phase as one whole-rank sweep per (field,
// direction) and a Start/stop pair around each; a volume phase that
// runs element by element must charge and report exactly the same. As
// with the root package's kernel-path golden, delete the file to
// re-record (the recording run fails, so a missing golden never passes).
const volumeGoldenPath = "testdata/volume_golden.json"

type volumeGolden struct {
	// Phases[rank][phase] is that rank's modeled compute/wait/send split.
	Phases []map[string]netmodel.PhaseSplit `json:"phases"`
	// Calls[rank][region] is the profiler's call count.
	Calls []map[string]int64 `json:"calls"`
}

func runVolumeGolden(t *testing.T, viscous, overlap bool, workers int) volumeGolden {
	t.Helper()
	const np, steps = 2, 2
	// Three elements per direction per rank: the middle layer has no
	// remote face, so Overlap gets interior and boundary runs.
	cfg := DefaultConfig(np, 5, 3)
	cfg.Workers = workers
	cfg.Overlap = overlap
	if viscous {
		cfg.Mu = 0.01
		cfg.Dealias = true
	}
	out := volumeGolden{Phases: make([]map[string]netmodel.PhaseSplit, np), Calls: make([]map[string]int64, np)}
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(GaussianPulse(1.5, 1.5, 1.5, 0.1, 0.5))
		s.Run(steps)
		out.Phases[r.ID()] = r.Clock().PhaseSplits()
		calls := map[string]int64{}
		for _, reg := range s.Rec.Flat() {
			calls[reg.Name] = reg.Calls
		}
		out.Calls[r.ID()] = calls
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVolumeGolden holds the per-phase virtual seconds of every rank and
// the profiler's region names and call counts, inviscid and
// viscous+dealias, blocking and overlapped, at pool widths 1 and 3, to
// the recorded bytes.
func TestVolumeGolden(t *testing.T) {
	type row struct{ viscous, overlap bool }
	rows := map[string]row{}
	var keys []string
	for _, viscous := range []bool{false, true} {
		for _, overlap := range []bool{false, true} {
			key := fmt.Sprintf("viscous=%v/overlap=%v", viscous, overlap)
			keys, rows[key] = append(keys, key), row{viscous, overlap}
		}
	}
	holdToGolden(t, volumeGoldenPath, keys, func(key string, workers int) any {
		return runVolumeGolden(t, rows[key].viscous, rows[key].overlap, workers)
	})
}

// holdToGolden runs every keyed row at pool widths 1 and 3 (subtests
// workers=1, workers=3), requires the two widths to agree, and compares
// each row's JSON with the file at path. A missing file is recorded from
// the run, which then fails, so a missing golden never passes.
func holdToGolden(t *testing.T, path string, keys []string, run func(key string, workers int) any) {
	want := map[string]json.RawMessage{}
	raw, err := os.ReadFile(path)
	record := errors.Is(err, os.ErrNotExist)
	if !record {
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]json.RawMessage{}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, key := range keys {
				g, err := json.Marshal(run(key, workers))
				if err != nil {
					t.Fatal(err)
				}
				if prev, ok := got[key]; ok && !bytes.Equal(g, prev) {
					t.Errorf("%s: workers=%d differs from workers=1:\n got  %s\n want %s", key, workers, g, prev)
				}
				got[key] = g
				if !record && !bytes.Equal(g, compactJSON(t, want[key])) {
					t.Errorf("%s moved:\n got  %s\n want %s", key, g, want[key])
				}
			}
		})
	}
	if record && !t.Failed() {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this run; re-run to compare", path)
	}
}

func compactJSON(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	if raw == nil {
		return nil
	}
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
