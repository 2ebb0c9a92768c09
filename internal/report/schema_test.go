package report

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestTrajectoryRoundTrip(t *testing.T) {
	tr := &Trajectory{
		SchemaVersion: SchemaVersion,
		Host:          Host{NumCPU: 8, GOOS: "linux", GOARCH: "amd64"},
		Results: []BenchResult{{
			Suite: "scalebench-loadbal", Scenario: "skewed",
			Params: map[string]string{"n": "5"},
			Metrics: []Metric{
				{Name: "makespan_s", Value: 0.04, Unit: "s", Deterministic: true, LessIsBetter: true},
			},
		}},
	}
	path := filepath.Join(t.TempDir(), "traj.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || len(got.Results) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	r := got.Find("scalebench-loadbal/skewed")
	if r == nil {
		t.Fatal("Find failed after round trip")
	}
	m, ok := r.Metric("makespan_s")
	if !ok || m.Value != 0.04 || !m.Deterministic || !m.LessIsBetter {
		t.Fatalf("metric = %+v ok=%v", m, ok)
	}
}

func TestDecodeNewerVersionRejected(t *testing.T) {
	buf := []byte(`{"schema_version": 99, "results": []}`)
	if _, err := DecodeTrajectory(buf); err == nil {
		t.Fatal("newer schema_version must be rejected, not silently misread")
	}
}

func TestDecodeGarbageRejected(t *testing.T) {
	if _, err := DecodeTrajectory([]byte(`{"pizzas": 3}`)); err == nil {
		t.Fatal("unrecognized format must error")
	}
}

// Every committed BENCH_*.json at the repo root is a current-schema
// trajectory: benchdiff reads them all through one decoder.
func TestCommittedBaselinesAreSchemaV1(t *testing.T) {
	_, thisFile, _, _ := runtime.Caller(0)
	files, err := filepath.Glob(filepath.Join(filepath.Dir(thisFile), "..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("found %d BENCH_*.json at the repo root, want the 6 committed ones: %v", len(files), files)
	}
	for _, f := range files {
		tr, err := ReadTrajectory(f)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if tr.SchemaVersion != 1 || len(tr.Results) == 0 {
			t.Errorf("%s: schema_version %d with %d results, want version 1 and results", f, tr.SchemaVersion, len(tr.Results))
		}
	}
}

// A document without schema_version — a pre-schema study document, a
// bare record array — is ErrNoSchemaVersion, and the error names the file.
func TestNoSchemaVersionIsTypedError(t *testing.T) {
	for name, doc := range map[string]string{
		"study.json": `{"n": 5, "hot_rank": 3, "scenarios": [{"scenario": "skewed", "makespan_s": 0.04}]}`,
		"array.json": `[{"bench": "deriv", "workers": 1}]`,
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadTrajectory(path)
		if !errors.Is(err, ErrNoSchemaVersion) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: err = %v, want ErrNoSchemaVersion naming the file", name, err)
		}
	}
	if _, err := DecodeTrajectory([]byte(`{"schema_version": 1, "results"`)); err == nil || errors.Is(err, ErrNoSchemaVersion) {
		t.Errorf("truncated document: err = %v, want the JSON error", err)
	}
}
