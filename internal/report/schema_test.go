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

// BENCH_trajectory.json is the one committed baseline, a current-schema
// trajectory holding only rows the gate compares: every metric is
// deterministic or allocs/op (gated at its absolute floor), so
// report-only wall-clock rows cannot be committed again.
func TestCommittedBaselinesAreSchemaV1(t *testing.T) {
	_, thisFile, _, _ := runtime.Caller(0)
	root := filepath.Join(filepath.Dir(thisFile), "..", "..")
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != "BENCH_trajectory.json" {
		t.Fatalf("found %v at the repo root, want exactly BENCH_trajectory.json", files)
	}
	tr, err := ReadTrajectory(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if tr.SchemaVersion != 1 || len(tr.Results) == 0 {
		t.Fatalf("schema_version %d with %d results, want version 1 and results", tr.SchemaVersion, len(tr.Results))
	}
	for _, r := range tr.Results {
		for _, m := range r.Metrics {
			if !m.Deterministic && m.Unit != "allocs/op" {
				t.Errorf("%s %s: neither deterministic nor allocs/op, so the gate would not compare it", r.Key(), m.Name)
			}
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
