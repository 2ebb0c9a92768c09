// Package prof is a lightweight execution profiler standing in for the
// gprof view of Figure 4: applications bracket named regions, and the
// profiler produces a flat profile (self time, total time, call counts,
// percentages) plus parent->child call-graph edges. One Profiler belongs
// to one rank; Merge aggregates across ranks.
package prof

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Profiler accumulates region timings for a single goroutine (rank). It
// is not safe for concurrent use; create one per rank and Merge.
type Profiler struct {
	regions map[string]*regionAcc
	edges   map[[2]string]*edgeAcc
	stack   []frame
	began   time.Time
	running bool
	elapsed float64
}

type regionAcc struct {
	calls       int64
	total, self float64
}

type edgeAcc struct {
	calls int64
	total float64
}

type frame struct {
	name  string
	start time.Time
	child float64
}

// New returns an empty profiler; its wall-clock window opens at the first
// Start and closes at Finish.
func New() *Profiler {
	return &Profiler{
		regions: make(map[string]*regionAcc),
		edges:   make(map[[2]string]*edgeAcc),
	}
}

// Start opens a region and returns the function closing it. Regions
// nest: time inside an inner region is charged to the inner region's
// self time and to the outer region's total (inclusive) time only.
//
//	defer p.Start("compute_flux")()
func (p *Profiler) Start(name string) func() {
	if !p.running {
		p.running = true
		p.began = time.Now()
	}
	p.stack = append(p.stack, frame{name: name, start: time.Now()})
	depth := len(p.stack)
	return func() {
		if len(p.stack) != depth {
			panic(fmt.Sprintf("prof: unbalanced Stop for region %q (depth %d, want %d)",
				name, len(p.stack), depth))
		}
		f := p.stack[depth-1]
		p.stack = p.stack[:depth-1]
		p.record(f.name, 1, time.Since(f.start).Seconds(), f.child)
	}
}

// record credits calls finished invocations of region name, total
// seconds inclusive of child seconds in nested regions, to the flat
// profile and to the arc from the innermost region still open.
func (p *Profiler) record(name string, calls int64, total, child float64) {
	acc, ok := p.regions[name]
	if !ok {
		acc = &regionAcc{}
		p.regions[name] = acc
	}
	acc.calls += calls
	acc.total += total
	acc.self += total - child
	parent := "<root>"
	if depth := len(p.stack); depth >= 1 {
		p.stack[depth-1].child += total
		parent = p.stack[depth-1].name
	}
	ek := [2]string{parent, name}
	e, ok := p.edges[ek]
	if !ok {
		e = &edgeAcc{}
		p.edges[ek] = e
	}
	e.calls += calls
	e.total += total
}

// Add records calls finished invocations of region name that together
// took seconds, as children of the innermost open region — for a caller
// that runs a region's work in pieces interleaved with other regions'
// (one element at a time, say) and times the pieces itself, where no
// single Start/stop pair could bracket it.
func (p *Profiler) Add(name string, calls int64, seconds float64) {
	p.record(name, calls, seconds, 0)
}

// Finish closes the profiler's wall-clock window; further Starts reopen
// it. Finish is idempotent.
func (p *Profiler) Finish() {
	if p.running {
		p.elapsed += time.Since(p.began).Seconds()
		p.running = false
	}
}

// Elapsed returns the total wall seconds between the first Start and
// Finish.
func (p *Profiler) Elapsed() float64 {
	if p.running {
		return p.elapsed + time.Since(p.began).Seconds()
	}
	return p.elapsed
}

// RegionStat is one row of the flat profile.
type RegionStat struct {
	Name  string
	Calls int64
	Total float64 // inclusive seconds
	Self  float64 // exclusive seconds
}

// Edge is one parent->child arc of the call graph.
type Edge struct {
	Parent, Child string
	Calls         int64
	Total         float64
}

// Flat returns the flat profile sorted by descending self time — the
// layout of a gprof flat profile.
func (p *Profiler) Flat() []RegionStat {
	out := make([]RegionStat, 0, len(p.regions))
	for name, a := range p.regions {
		out = append(out, RegionStat{Name: name, Calls: a.calls, Total: a.total, Self: a.self})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Edges returns the call-graph arcs sorted by descending time.
func (p *Profiler) Edges() []Edge {
	out := make([]Edge, 0, len(p.edges))
	for k, e := range p.edges {
		out = append(out, Edge{Parent: k[0], Child: k[1], Calls: e.calls, Total: e.total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Parent+out[i].Child < out[j].Parent+out[j].Child
	})
	return out
}

// Merge returns a profiler-less aggregate of many ranks' flat profiles:
// summed calls and times per region, plus the summed elapsed window.
func Merge(profs []*Profiler) ([]RegionStat, []Edge, float64) {
	regions := map[string]*RegionStat{}
	edges := map[[2]string]*Edge{}
	elapsed := 0.0
	for _, p := range profs {
		elapsed += p.Elapsed()
		for _, r := range p.Flat() {
			a, ok := regions[r.Name]
			if !ok {
				a = &RegionStat{Name: r.Name}
				regions[r.Name] = a
			}
			a.Calls += r.Calls
			a.Total += r.Total
			a.Self += r.Self
		}
		for _, e := range p.Edges() {
			k := [2]string{e.Parent, e.Child}
			a, ok := edges[k]
			if !ok {
				a = &Edge{Parent: e.Parent, Child: e.Child}
				edges[k] = a
			}
			a.Calls += e.Calls
			a.Total += e.Total
		}
	}
	rs := make([]RegionStat, 0, len(regions))
	for _, r := range regions {
		rs = append(rs, *r)
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Self != rs[j].Self {
			return rs[i].Self > rs[j].Self
		}
		return rs[i].Name < rs[j].Name
	})
	es := make([]Edge, 0, len(edges))
	for _, e := range edges {
		es = append(es, *e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Total != es[j].Total {
			return es[i].Total > es[j].Total
		}
		return es[i].Parent+es[i].Child < es[j].Parent+es[j].Child
	})
	return rs, es, elapsed
}

// FormatFlat renders a flat profile as a gprof-style text table; total is
// the time base for the percentage column (pass the merged elapsed time).
func FormatFlat(stats []RegionStat, total float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %12s %12s %10s  %s\n", "% time", "self(s)", "total(s)", "calls", "name")
	for _, r := range stats {
		pct := 0.0
		if total > 0 {
			pct = 100 * r.Self / total
		}
		fmt.Fprintf(&b, "%6.2f%% %12.6f %12.6f %10d  %s\n", pct, r.Self, r.Total, r.Calls, r.Name)
	}
	return b.String()
}

// FormatCallGraph renders the call-graph arcs as indented text.
func FormatCallGraph(edges []Edge) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %10s  %s\n", "total(s)", "calls", "parent -> child")
	for _, e := range edges {
		fmt.Fprintf(&b, "%12.6f %10d  %s -> %s\n", e.Total, e.Calls, e.Parent, e.Child)
	}
	return b.String()
}
