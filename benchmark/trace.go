package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one harness-side interval around a call into a public
// function of the program. Times are Unix nanoseconds, so spans of
// ranks hosted in different processes share one axis. Parent indexes
// the span list it is stored in; -1 marks a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rank   int    `json:"rank"`
}

// recorder keeps one rank's spans in memory; nothing is written until
// the benchmark ends. It is owned by the rank's goroutine. A nil
// recorder records nothing.
type recorder struct {
	rank  int
	epoch time.Time
	base  int64 // Unix nanoseconds at epoch
	spans []span
	open  []int
}

func newRecorder(rank, capacity int) *recorder {
	now := time.Now()
	return &recorder{rank: rank, epoch: now, base: now.UnixNano(), spans: make([]span, 0, capacity)}
}

// now reads the monotonic clock, expressed on the Unix axis.
func (rc *recorder) now() int64 { return rc.base + int64(time.Since(rc.epoch)) }

func (rc *recorder) begin(name string) {
	if rc == nil {
		return
	}
	parent := -1
	if n := len(rc.open); n > 0 {
		parent = rc.open[n-1]
	}
	rc.open = append(rc.open, len(rc.spans))
	rc.spans = append(rc.spans, span{Name: name, Parent: parent, Rank: rc.rank, Start: rc.now()})
}

func (rc *recorder) end() {
	if rc == nil {
		return
	}
	n := len(rc.open) - 1
	rc.spans[rc.open[n]].End = rc.now()
	rc.open = rc.open[:n]
}

// mergeSpans concatenates per-rank span lists, rebasing parent indexes
// onto the merged list.
func mergeSpans(lists ...[]span) []span {
	var out []span
	for _, l := range lists {
		off := len(out)
		for _, s := range l {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// checkSpans verifies the structural rules every consumer relies on:
// spans are closed, a parent precedes and encloses its children and
// shares their rank.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q: ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d %q: parent %d does not precede it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Rank != s.Rank || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q: not enclosed by parent %d %q", i, s.Name, s.Parent, p.Name)
		}
	}
	return nil
}

// spanTotals sums, per span name, the durations and the self times
// (duration minus the part covered by child spans), in seconds.
func spanTotals(spans []span) (total, self map[string]float64) {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	total, self = map[string]float64{}, map[string]float64{}
	for i, s := range spans {
		d := s.End - s.Start
		total[s.Name] += float64(d) / 1e9
		self[s.Name] += float64(d-covered[i]) / 1e9
	}
	return total, self
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
