package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs/critpath"
	"repro/internal/report"
)

// CompareOptions tune regression detection.
type CompareOptions struct {
	// Threshold is the relative worsening tolerated on deterministic
	// (modeled) metrics before a regression is declared. Modeled paths
	// are bit-stable, so this only has to absorb intentional small
	// drifts; default 0.02.
	Threshold float64
	// TopBlame bounds the critical-path blame lines per regression
	// (default 3).
	TopBlame int
}

// Delta is one metric compared across two trajectories.
type Delta struct {
	Key           string // suite/scenario
	Metric        string
	Unit          string
	Base, Cur     float64
	Rel           float64 // (cur-base)/|base|, 0 if base == 0
	Deterministic bool
	Worse         bool // moved in the metric's bad direction
	Regression    bool // worse beyond the applicable threshold
}

// Comparison is the result of diffing a fresh run against a baseline.
type Comparison struct {
	Deltas      []Delta
	Regressions []Delta
	// Missing lists baseline results ("suite/scenario") and metrics
	// ("suite/scenario metric") the fresh run did not produce: a renamed
	// row would otherwise silently stop being gated, so they fail the
	// gate like regressions. New lists fresh keys absent from the
	// baseline (not regressions).
	Missing []string
	New     []string
	// Blame maps a regressed key to its critical-path blame lines, when
	// both runs carried a critpath summary.
	Blame map[string][]critpath.BlameLine
}

// absFloor returns the absolute worsening a unit tolerates regardless
// of relative threshold — the near-zero-baseline guard. The allocation
// guard's bar is "under one per op", not a percentage of ~0.
func absFloor(unit string) float64 {
	if unit == "allocs/op" {
		return 1.0
	}
	return 0
}

// Compare diffs cur against base, scenario by scenario, metric by
// metric. Every baseline metric gates: a deterministic one beyond
// Threshold, allocs/op beyond its absolute floor (the baseline holds no
// other kind). Rows and metrics only cur has are schema growth, not
// regressions.
func Compare(base, cur *report.Trajectory, opts CompareOptions) *Comparison {
	if opts.Threshold == 0 {
		opts.Threshold = 0.02
	}
	if opts.TopBlame == 0 {
		opts.TopBlame = 3
	}
	out := &Comparison{Blame: map[string][]critpath.BlameLine{}}
	for _, key := range base.Keys() {
		br := base.Find(key)
		cr := cur.Find(key)
		if cr == nil {
			out.Missing = append(out.Missing, key)
			continue
		}
		keyRegressed := false
		for _, bm := range br.Metrics {
			cm, ok := cr.Metric(bm.Name)
			if !ok {
				out.Missing = append(out.Missing, key+" "+bm.Name)
				continue
			}
			d := Delta{
				Key: key, Metric: bm.Name, Unit: bm.Unit,
				Base: bm.Value, Cur: cm.Value,
				Deterministic: bm.Deterministic,
			}
			if bm.Value != 0 {
				d.Rel = (cm.Value - bm.Value) / abs(bm.Value)
			}
			if bm.LessIsBetter {
				d.Worse = cm.Value > bm.Value
			} else {
				d.Worse = cm.Value < bm.Value
			}
			bar := absFloor(bm.Unit)
			if bm.Deterministic {
				bar = max(opts.Threshold*abs(bm.Value), bar)
			}
			d.Regression = d.Worse && abs(cm.Value-bm.Value) > bar
			out.Deltas = append(out.Deltas, d)
			if d.Regression {
				out.Regressions = append(out.Regressions, d)
				keyRegressed = true
			}
		}
		if keyRegressed && br.Critpath != nil && cr.Critpath != nil {
			if lines := critpath.Blame(*br.Critpath, *cr.Critpath, opts.TopBlame); len(lines) > 0 {
				out.Blame[key] = lines
			}
		}
	}
	for _, key := range cur.Keys() {
		if base.Find(key) == nil {
			out.New = append(out.New, key)
		}
	}
	return out
}

// Format renders the comparison for terminals: one line per metric,
// regressions marked, blame lines under their scenario.
func (c *Comparison) Format(verbose bool) string {
	var b strings.Builder
	lastKey := ""
	blamed := map[string]bool{}
	for _, d := range c.Deltas {
		if !verbose && !d.Worse && d.Rel == 0 {
			continue // bit-identical: only counted, not listed
		}
		if d.Key != lastKey {
			fmt.Fprintf(&b, "%s:\n", d.Key)
			lastKey = d.Key
		}
		mark := " "
		if d.Regression {
			mark = "✗"
		} else if d.Worse {
			mark = "~"
		}
		fmt.Fprintf(&b, "  %s %-22s %14.9g -> %-14.9g %+7.2f%%\n", mark, d.Metric, d.Base, d.Cur, 100*d.Rel)
		if d.Regression && !blamed[d.Key] {
			blamed[d.Key] = true
			for _, l := range c.Blame[d.Key] {
				fmt.Fprintf(&b, "      blame: %s\n", l.Text)
			}
		}
	}
	stable := 0
	for _, d := range c.Deltas {
		if d.Rel == 0 {
			stable++
		}
	}
	fmt.Fprintf(&b, "%d metrics compared, %d bit-identical, %d regressions, %d missing from fresh run",
		len(c.Deltas), stable, len(c.Regressions), len(c.Missing))
	if len(c.Missing) > 0 {
		fmt.Fprintf(&b, ": %s", strings.Join(c.Missing, ", "))
	}
	b.WriteString("\n")
	if verbose {
		sort.Strings(c.New)
		for _, k := range c.New {
			fmt.Fprintf(&b, "new (no baseline): %s\n", k)
		}
	}
	return b.String()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
