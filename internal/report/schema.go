package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs/critpath"
)

// SchemaVersion is the current version of the unified bench-result
// schema, which every committed BENCH_*.json carries.
const SchemaVersion = 1

// Metric is one named scalar measurement with its comparison semantics.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"` // "s", "gflop/s", "frac", "bytes", "allocs/op", "x"
	// Deterministic marks modeled values that are bit-reproducible on
	// any host (virtual-clock makespans, modeled fractions, counts).
	// benchdiff gates these tightly; non-deterministic (wall-clock)
	// metrics get repetition-based noise bounds instead.
	Deterministic bool `json:"deterministic,omitempty"`
	// LessIsBetter orients regression detection: true for times and
	// fractions, false for throughput and speedups.
	LessIsBetter bool `json:"less_is_better,omitempty"`
}

// BenchResult is one scenario of one bench suite: a named point in
// configuration space with its measured metrics and, when the run was
// traced, its critical-path digest.
type BenchResult struct {
	// Suite names the producing benchmark family: "kernelbench",
	// "scalebench-loadbal", "scalebench-overlap", "allocs".
	Suite string `json:"suite"`
	// Scenario identifies the point within the suite, e.g.
	// "skewed+loadbal" or "dudr/workers=1".
	Scenario string `json:"scenario"`
	// Params records the configuration knobs that produced the result.
	Params map[string]string `json:"params,omitempty"`
	// Metrics are the measurements, ordered as produced.
	Metrics []Metric `json:"metrics"`
	// Critpath, when present, is the run's critical-path attribution —
	// what benchdiff blames a regression on.
	Critpath *critpath.Summary `json:"critpath,omitempty"`
}

// Metric returns the named metric and whether it exists.
func (r *BenchResult) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Key identifies a result across runs for diffing.
func (r *BenchResult) Key() string { return r.Suite + "/" + r.Scenario }

// Host describes the machine a trajectory was recorded on; wall-clock
// comparisons across differing hosts are noise, and benchdiff says so.
type Host struct {
	NumCPU int    `json:"num_cpu"`
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
}

// Trajectory is the unified, versioned container every bench command
// writes and benchdiff consumes: one file per recorded point in time.
type Trajectory struct {
	SchemaVersion int           `json:"schema_version"`
	CreatedAt     string        `json:"created_at,omitempty"`
	Host          Host          `json:"host"`
	Results       []BenchResult `json:"results"`
}

// New returns a current-schema trajectory stamped with this host and
// time, holding the given results.
func New(results []BenchResult) *Trajectory {
	return &Trajectory{
		SchemaVersion: SchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		Host:          Host{NumCPU: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH},
		Results:       results,
	}
}

// Find returns the result with the given key, or nil.
func (t *Trajectory) Find(key string) *BenchResult {
	for i := range t.Results {
		if t.Results[i].Key() == key {
			return &t.Results[i]
		}
	}
	return nil
}

// Keys lists every result key, sorted.
func (t *Trajectory) Keys() []string {
	ks := make([]string, 0, len(t.Results))
	for i := range t.Results {
		ks = append(ks, t.Results[i].Key())
	}
	sort.Strings(ks)
	return ks
}

// WriteFile writes the trajectory as indented JSON.
func (t *Trajectory) WriteFile(path string) error {
	if t.SchemaVersion == 0 {
		t.SchemaVersion = SchemaVersion
	}
	buf, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ErrNoSchemaVersion marks a document that does not declare a
// schema_version: not a bench-result trajectory of any version.
var ErrNoSchemaVersion = errors.New("no schema_version: not a bench-result trajectory")

// ReadTrajectory loads a bench-result file; its errors name the file.
func ReadTrajectory(path string) (*Trajectory, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := DecodeTrajectory(buf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// DecodeTrajectory decodes a bench-result document: an object carrying
// a schema_version this build supports.
func DecodeTrajectory(buf []byte) (*Trajectory, error) {
	var t Trajectory
	err := json.Unmarshal(buf, &t)
	switch {
	case t.SchemaVersion == 0 && json.Valid(buf):
		return nil, ErrNoSchemaVersion // whatever else it is: a bare array, another tool's object
	case err != nil:
		return nil, err
	case t.SchemaVersion > SchemaVersion:
		return nil, fmt.Errorf("schema_version %d is newer than this build supports (%d)", t.SchemaVersion, SchemaVersion)
	}
	return &t, nil
}
