// Package critpath is a post-hoc critical-path analysis engine over the
// telemetry layer's span/flow traces.
//
// A traced run yields, per rank, a nested timeline of spans (dual-clock:
// modeled virtual time and host wall time) and, across ranks, one flow
// arrow per wire-level message carrying its modeled send and arrival
// times. Together they form the cross-rank happens-before graph of the
// run: a rank's activity depends on its own preceding activity, and the
// consuming end of a message depends on the producing end.
//
// Analyze walks that graph backward from the last-finishing rank's final
// timestamp. At every point it sits on one rank's innermost active span;
// inside communication spans it looks for the latest inbound message
// consumed there, attributes the wire time as wait, and jumps to the
// sending rank at the send time. The result is a contiguous chain of
// segments covering exactly [0, makespan] — so the attribution sums to
// the makespan by construction — split into compute / wait / comm /
// untracked per rank and per application phase (rhs, gs-exchange, rk,
// reduce, rebalance, recovery), plus the top wire edges on the path and
// every rank's slack behind the critical finisher.
//
// This is the measurement the CMT-bone paper performs by hand with
// per-kernel timers and MPI_Wait profiles (Figures 7-9): where a run's
// time goes, and which communication dependencies bound it.
package critpath

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Domain selects which of the two recorded clocks the analysis runs on.
type Domain int

const (
	// Virtual analyzes modeled time (netmodel clocks): deterministic,
	// bit-reproducible, with real wire latencies between ranks.
	Virtual Domain = iota
	// Wall analyzes host wall-clock time: noisy, but reflects what the
	// process actually did. Flows carry a single wall stamp (the send
	// record time), so wall-domain wire edges have zero width and their
	// wait is charged from the stamp to the consuming span's end.
	Wall
)

// String implements fmt.Stringer.
func (d Domain) String() string {
	if d == Wall {
		return "wall"
	}
	return "virtual"
}

// Kind classifies what the critical path was doing during a segment.
type Kind string

const (
	// KindCompute is local computation (kernel, RK update, filter...).
	KindCompute Kind = "compute"
	// KindWait is time blocked on a message still in flight: the wire
	// edges of the path. This is the MPI_Wait bucket of the paper.
	KindWait Kind = "wait"
	// KindComm is local communication processing inside a comm-category
	// span that was not blocked on an in-flight message (packing,
	// reduction arithmetic, post-arrival copies).
	KindComm Kind = "comm"
	// KindUntracked covers path time outside any recorded span.
	KindUntracked Kind = "untracked"
)

// Segment is one contiguous piece of the critical path on one rank.
type Segment struct {
	Rank  int     `json:"rank"`
	Phase string  `json:"phase"`
	Name  string  `json:"name"` // innermost span name ("" if untracked)
	Kind  Kind    `json:"kind"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Dur returns the segment's duration.
func (s Segment) Dur() float64 { return s.End - s.Start }

// Edge is one wire-level message the critical path crossed: the path
// was blocked on rank Dst until this message from Src arrived.
type Edge struct {
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Site    string  `json:"site"`
	Phase   string  `json:"phase"` // receiving span's phase
	Bytes   int64   `json:"bytes"`
	SendT   float64 `json:"send_t"`
	ArriveT float64 `json:"arrive_t"`
	Wait    float64 `json:"wait"` // path time blocked on this edge
}

// Split is a compute/wait/comm/untracked decomposition of path time.
type Split struct {
	Compute   float64 `json:"compute"`
	Wait      float64 `json:"wait"`
	Comm      float64 `json:"comm"`
	Untracked float64 `json:"untracked,omitempty"`
}

// Total returns the split's total seconds.
func (s Split) Total() float64 { return s.Compute + s.Wait + s.Comm + s.Untracked }

func (s *Split) add(k Kind, d float64) {
	switch k {
	case KindCompute:
		s.Compute += d
	case KindWait:
		s.Wait += d
	case KindComm:
		s.Comm += d
	default:
		s.Untracked += d
	}
}

// Cell keys the per-rank, per-phase attribution table.
type Cell struct {
	Rank  int
	Phase string
}

// Analysis is the result of one critical-path walk.
type Analysis struct {
	Domain   Domain
	Makespan float64
	// CritRank is the rank whose final activity ends the run.
	CritRank int
	// Segments is the path in forward time order; contiguous, covering
	// [0, Makespan] exactly.
	Segments []Segment
	// Cells attributes path time per (rank, phase).
	Cells map[Cell]*Split
	// Slack maps every traced rank to makespan minus its own final
	// activity end: how much later it could have finished without (by
	// itself) moving the makespan.
	Slack map[int]float64
	// Edges lists every wire edge the path crossed, descending by Wait.
	Edges []Edge
}

// Total sums the attribution over all cells; equals Makespan to within
// float summation error.
func (a *Analysis) Total() Split {
	var t Split
	for _, s := range a.Cells {
		t.Compute += s.Compute
		t.Wait += s.Wait
		t.Comm += s.Comm
		t.Untracked += s.Untracked
	}
	return t
}

// timeline is one rank's elementary-interval decomposition: contiguous
// half-open segments covering [first span start, last span end], each
// labeled with the innermost active span (nil in gaps between spans).
type timeline struct {
	segs  []tlSeg
	final float64 // end of last activity
}

type tlSeg struct {
	lo, hi float64
	span   *obs.Span // nil: gap between spans
}

type boundary struct {
	t     float64
	start bool
	span  *obs.Span
	other float64 // the span's other endpoint, for ordering ties
}

// spanTimes returns the span's extent in the chosen domain.
func spanTimes(s *obs.Span, d Domain) (float64, float64) {
	if d == Wall {
		return s.WallStart, s.WallEnd
	}
	return s.VTStart, s.VTEnd
}

// buildTimeline decomposes one rank's (properly nested) spans into
// elementary intervals via a boundary sweep.
func buildTimeline(spans []*obs.Span, d Domain) timeline {
	ev := make([]boundary, 0, 2*len(spans))
	for _, s := range spans {
		lo, hi := spanTimes(s, d)
		if hi <= lo {
			continue // zero-extent in this domain: nothing to cover
		}
		ev = append(ev, boundary{t: lo, start: true, span: s, other: hi})
		ev = append(ev, boundary{t: hi, start: false, span: s, other: lo})
	}
	if len(ev) == 0 {
		return timeline{}
	}
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].t != ev[j].t {
			return ev[i].t < ev[j].t
		}
		// Ends before starts, so back-to-back spans don't overlap.
		if ev[i].start != ev[j].start {
			return !ev[i].start
		}
		if ev[i].start {
			// Containers (later end) open first.
			return ev[i].other > ev[j].other
		}
		// Inner spans (later start) close first.
		return ev[i].other > ev[j].other
	})
	var tl timeline
	var stack []*obs.Span
	prev := ev[0].t
	for _, e := range ev {
		if e.t > prev {
			var top *obs.Span
			if len(stack) > 0 {
				top = stack[len(stack)-1]
			}
			tl.segs = append(tl.segs, tlSeg{lo: prev, hi: e.t, span: top})
			prev = e.t
		}
		if e.start {
			stack = append(stack, e.span)
		} else {
			// Normally LIFO; tolerate imperfect nesting by removing
			// the span wherever it sits.
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i] == e.span {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
		}
	}
	tl.final = tl.segs[len(tl.segs)-1].hi
	return tl
}

// segAt returns the elementary segment containing times just below t
// (lo < t <= hi), or nil if t is at or below the rank's first activity.
// ok=false with a non-nil seg never happens; above the last activity it
// returns the last segment and above=true.
func (tl *timeline) segAt(t float64) (seg *tlSeg, above bool) {
	n := len(tl.segs)
	if n == 0 || t <= tl.segs[0].lo {
		return nil, false
	}
	if t > tl.final {
		return nil, true
	}
	i := sort.Search(n, func(i int) bool { return tl.segs[i].hi >= t })
	return &tl.segs[i], false
}

// commLike reports whether a span's category contains blocking receives.
func commLike(cat obs.Category) bool {
	return cat == obs.CatGS || cat == obs.CatComm
}

// phaseOf maps a span to its reporting phase, with the container
// fallback resolved to "other".
func phaseOf(s *obs.Span) string {
	if p := obs.PhaseOf(s.Name, s.Cat); p != "" {
		return p
	}
	return obs.PhaseOther
}

// flowTimes returns the flow's (send, arrive) position in the domain.
func flowTimes(f *obs.Flow, d Domain) (float64, float64) {
	if d == Wall {
		return f.SendWall, f.SendWall
	}
	return f.SendVT, f.ArriveVT
}

// Analyze walks the happens-before graph of a recorded run backward and
// returns the critical path with its attribution. It errors if the
// trace is empty or the walk cannot make progress (malformed flows).
func Analyze(spans []obs.Span, flows []obs.Flow, d Domain) (*Analysis, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("critpath: no spans recorded")
	}
	byRank := make(map[int][]*obs.Span)
	for i := range spans {
		s := &spans[i]
		byRank[s.Rank] = append(byRank[s.Rank], s)
	}
	tls := make(map[int]*timeline, len(byRank))
	a := &Analysis{
		Domain: d,
		Cells:  make(map[Cell]*Split),
		Slack:  make(map[int]float64),
	}
	for r, ss := range byRank {
		tl := buildTimeline(ss, d)
		tls[r] = &tl
		// A tie goes to the lowest rank, not to map iteration order.
		if tl.final > a.Makespan || (tl.final == a.Makespan && r < a.CritRank) {
			a.Makespan, a.CritRank = tl.final, r
		}
	}
	for r, tl := range tls {
		a.Slack[r] = a.Makespan - tl.final
	}

	// Inbound flows per rank, ascending by arrival in this domain. Equal
	// arrivals are ordered by the rest of the flow rather than by the
	// order the rank goroutines happened to record them in, so the walk
	// (and the summary a baseline stores) is reproducible.
	inbound := make(map[int][]*obs.Flow)
	for i := range flows {
		f := &flows[i]
		inbound[f.Dst] = append(inbound[f.Dst], f)
	}
	for _, fs := range inbound {
		sort.Slice(fs, func(i, j int) bool {
			fi, fj := fs[i], fs[j]
			si, ai := flowTimes(fi, d)
			sj, aj := flowTimes(fj, d)
			switch {
			case ai != aj:
				return ai < aj
			case si != sj:
				return si < sj
			case fi.Src != fj.Src:
				return fi.Src < fj.Src
			case fi.Site != fj.Site:
				return fi.Site < fj.Site
			}
			return fi.Bytes < fj.Bytes
		})
	}
	// latestFlow returns the inbound flow to r with the largest arrival
	// in (lo, t] whose send strictly precedes its consumption.
	latestFlow := func(r int, lo, t float64) *obs.Flow {
		fs := inbound[r]
		i := sort.Search(len(fs), func(i int) bool {
			_, arr := flowTimes(fs[i], d)
			return arr > t
		})
		for i--; i >= 0; i-- {
			f := fs[i]
			send, arr := flowTimes(f, d)
			if arr <= lo {
				return nil
			}
			if send < t { // progress guard: the walk jumps to (Src, send)
				return f
			}
		}
		return nil
	}

	emit := func(r int, phase, name string, k Kind, lo, hi float64) {
		if hi <= lo {
			return
		}
		a.Segments = append(a.Segments, Segment{Rank: r, Phase: phase, Name: name, Kind: k, Start: lo, End: hi})
		c := Cell{Rank: r, Phase: phase}
		sp := a.Cells[c]
		if sp == nil {
			sp = &Split{}
			a.Cells[c] = sp
		}
		sp.add(k, hi-lo)
	}

	r, t := a.CritRank, a.Makespan
	maxSteps := 4 * (len(spans) + len(flows) + 16)
	for steps := 0; t > 0; steps++ {
		if steps > maxSteps {
			return nil, fmt.Errorf("critpath: walk did not terminate after %d steps (rank %d, t=%g)", steps, r, t)
		}
		tl := tls[r]
		seg, above := tl.segAt(t)
		if seg == nil {
			if above {
				// Jumped in past this rank's last activity.
				emit(r, obs.PhaseOther, "", KindUntracked, tl.final, t)
				t = tl.final
				continue
			}
			// Before this rank's first activity: nothing earlier can be
			// on the path; close out to zero.
			emit(r, obs.PhaseOther, "", KindUntracked, 0, t)
			t = 0
			break
		}
		if seg.span == nil {
			emit(r, obs.PhaseOther, "", KindUntracked, seg.lo, t)
			t = seg.lo
			continue
		}
		s := seg.span
		phase := phaseOf(s)
		if commLike(s.Cat) {
			if f := latestFlow(r, seg.lo, t); f != nil {
				send, arr := flowTimes(f, d)
				if arr > t {
					arr = t
				}
				waitDur := arr - send
				if d == Wall {
					// The wire edge has zero wall width; everything from
					// the send stamp to consumption was blocked receive.
					arr = send
					waitDur = t - send
					emit(r, phase, s.Name, KindWait, send, t)
				} else {
					// Post-arrival local processing, then the wire edge.
					emit(r, phase, s.Name, KindComm, arr, t)
					emit(r, phase, s.Name, KindWait, send, arr)
				}
				a.Edges = append(a.Edges, Edge{
					Src: f.Src, Dst: r, Site: f.Site, Phase: phase, Bytes: f.Bytes,
					SendT: send, ArriveT: arr, Wait: waitDur,
				})
				r, t = f.Src, send
				continue
			}
			emit(r, phase, s.Name, KindComm, seg.lo, t)
			t = seg.lo
			continue
		}
		emit(r, phase, s.Name, KindCompute, seg.lo, t)
		t = seg.lo
	}
	// Forward time order, and heaviest edges first.
	for i, j := 0, len(a.Segments)-1; i < j; i, j = i+1, j-1 {
		a.Segments[i], a.Segments[j] = a.Segments[j], a.Segments[i]
	}
	sort.SliceStable(a.Edges, func(i, j int) bool { return a.Edges[i].Wait > a.Edges[j].Wait })
	return a, nil
}
