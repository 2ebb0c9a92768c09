package obs

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/netmodel"
)

// RankTracer is one rank's region recorder — the gprof view of Figure 4
// and the span feed of the trace in one: a region opened on it runs
// under its accounting phase on the rank's virtual clock, lands in the
// call tree the profile is read from, and, when the recorder came from a
// non-nil Tracer, is retained as a Span. It is owned by the rank's
// goroutine (only the span append, inside the Tracer, synchronizes). A
// nil RankTracer opens nothing: Region and Span return the zero Region.
type RankTracer struct {
	t     *Tracer // span sink; nil retains nothing
	rank  int
	clock *netmodel.Clock

	root    node // its kids are the top-level regions
	stack   []frame
	began   time.Time // wall-clock window: opened by the first region (zero:
	elapsed float64   // closed), added to elapsed by Finish
}

// node is one region in one calling context: its finished calls made
// directly inside the parent node's region.
type node struct {
	name  string
	calls int64
	total float64 // inclusive seconds
	kids  []*node
}

type frame struct {
	name      string
	cat       Category
	node      *node // nil: a Span, kept out of the profile
	start     time.Time
	vt0       float64
	prevPhase string
}

// Region is an open region; the zero Region's End does nothing.
type Region struct {
	r     *RankTracer
	depth int
}

// Region opens a named region:
//
//	reg := rt.Region("ax_deriv_dudr", obs.CatKernel)
//	... kernel, then its virtual-clock charge ...
//	reg.End()
//
// Regions nest: time inside an inner region is the inner region's self
// time and the outer region's total only. End the region after the
// virtual-clock charge for its work, so the charge lands in the region's
// phase and the span's virtual extent includes it.
func (r *RankTracer) Region(name string, cat Category) Region { return r.open(name, cat, true) }

// Span opens a region that stays out of the profile — phase and span
// only — for library-internal extents (a reduction, the stages of one gs
// exchange) that gprof's region list never had.
func (r *RankTracer) Span(name string, cat Category) Region { return r.open(name, cat, false) }

func (r *RankTracer) open(name string, cat Category, profiled bool) Region {
	if r == nil {
		return Region{}
	}
	phase := PhaseOf(name, cat)
	if phase == "" {
		phase = r.clock.Phase() // a container keeps the enclosing phase
	}
	if !profiled && r.t == nil && phase == r.clock.Phase() {
		return Region{}
	}
	f := frame{name: name, cat: cat, start: time.Now(), vt0: r.clock.Now(), prevPhase: r.clock.SetPhase(phase)}
	if profiled {
		f.node = r.current().kid(name)
		if r.began.IsZero() {
			r.began = f.start
		}
	}
	r.stack = append(r.stack, f)
	return Region{r, len(r.stack)}
}

// End closes the region, first closing any region still open inside it,
// innermost first: a panic unwinding through a deferred End (a
// DeadRankError, say) skips the inner Ends, and must surface as itself.
// It panics if the region is no longer open.
func (g Region) End() {
	r := g.r
	if r == nil {
		return
	}
	if len(r.stack) < g.depth {
		panic(fmt.Sprintf("obs: unbalanced End: closing region %d with %d open", g.depth, len(r.stack)))
	}
	for len(r.stack) >= g.depth {
		f := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		r.finish(f.node, f.name, f.cat, f.start, time.Since(f.start), f.vt0, r.clock.Now())
		r.clock.SetPhase(f.prevPhase)
	}
}

// Add records one finished call of region name whose extents the caller
// measured itself — wall [start, start+dur), virtual [vt0, vt1] — inside
// the innermost open region. It serves work done in pieces interleaved
// with other regions' (an element at a time, say), which no Region/End
// pair can bracket; the caller charges the clock under the right phase.
func (r *RankTracer) Add(name string, cat Category, start time.Time, dur time.Duration, vt0, vt1 float64) {
	r.finish(r.current().kid(name), name, cat, start, dur, vt0, vt1)
}

// AddWall credits dur more wall to region name inside the innermost open
// region, with no call and no span: work of a call Add recorded that was
// done apart from the interval its span covers.
func (r *RankTracer) AddWall(name string, dur time.Duration) {
	r.current().kid(name).total += dur.Seconds()
}

// finish credits one call to n (if non-nil) and the span to the sink (if any).
func (r *RankTracer) finish(n *node, name string, cat Category, start time.Time, dur time.Duration, vt0, vt1 float64) {
	if n != nil {
		n.calls++
		n.total += dur.Seconds()
	}
	if r.t != nil {
		w0 := start.Sub(r.t.epoch).Seconds()
		r.t.addSpan(Span{
			Rank: r.rank, Name: name, Cat: cat,
			WallStart: w0, WallEnd: w0 + dur.Seconds(),
			VTStart: vt0, VTEnd: vt1,
		})
	}
}

// current returns the innermost open profiled region's node.
func (r *RankTracer) current() *node {
	for i := len(r.stack) - 1; i >= 0; i-- {
		if n := r.stack[i].node; n != nil {
			return n
		}
	}
	return &r.root
}

// kid returns n's child for region name: a scan, because a region has few
// children and call sites pass the same string constant every time.
func (n *node) kid(name string) *node {
	for _, k := range n.kids {
		if k.name == name {
			return k
		}
	}
	k := &node{name: name}
	n.kids = append(n.kids, k)
	return k
}

// Finish closes the wall-clock window (idempotent); the next Region reopens it.
func (r *RankTracer) Finish() { r.elapsed, r.began = r.Elapsed(), time.Time{} }

// Elapsed returns the wall seconds between the first Region and Finish.
func (r *RankTracer) Elapsed() float64 {
	if r.began.IsZero() {
		return r.elapsed
	}
	return r.elapsed + time.Since(r.began).Seconds()
}

// RegionStat is one row of the flat profile.
type RegionStat struct {
	Name        string
	Calls       int64
	Total, Self float64 // inclusive seconds; exclusive: less the regions called inside
}

// Edge is one parent->child arc of the call graph, from "<root>" at the top.
type Edge struct {
	Parent, Child string
	Calls         int64
	Total         float64
}

// Profile is the gprof view of one or more ranks: flat profile by descending
// self time, arcs by descending time, and the summed wall-clock windows.
type Profile struct {
	Flat    []RegionStat
	Edges   []Edge
	Elapsed float64
}

// Flat returns this rank's flat profile.
func (r *RankTracer) Flat() []RegionStat { return Merge(r).Flat }

// Merge sums the recorders' call trees by region name (nil entries skipped).
func Merge(recs ...*RankTracer) Profile {
	var p Profile
	flat, edges := map[string]*RegionStat{}, map[[2]string]*Edge{}
	var walk func(parent string, n *node)
	walk = func(parent string, n *node) {
		for _, k := range n.kids {
			e, s := at(edges, [2]string{parent, k.name}), at(flat, k.name)
			e.Parent, e.Child, s.Name = parent, k.name, k.name
			e.Calls += k.calls
			e.Total += k.total
			s.Calls += k.calls
			s.Total += k.total
			s.Self += k.total
			at(flat, parent).Self -= k.total
			walk(k.name, k)
		}
	}
	for _, r := range recs {
		if r != nil {
			p.Elapsed += r.Elapsed()
			walk("<root>", &r.root)
		}
	}
	// Rows without a finished call ("<root>", regions still open) drop out.
	for _, s := range flat {
		if s.Calls > 0 {
			p.Flat = append(p.Flat, *s)
		}
	}
	for _, e := range edges {
		if e.Calls > 0 {
			p.Edges = append(p.Edges, *e)
		}
	}
	sort.Slice(p.Flat, func(i, j int) bool {
		if p.Flat[i].Self != p.Flat[j].Self {
			return p.Flat[i].Self > p.Flat[j].Self
		}
		return p.Flat[i].Name < p.Flat[j].Name
	})
	sort.Slice(p.Edges, func(i, j int) bool {
		a, b := p.Edges[i], p.Edges[j]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		return a.Parent+a.Child < b.Parent+b.Child
	})
	return p
}

// at returns m[k], a new zero V on first use.
func at[K comparable, V any](m map[K]*V, k K) *V {
	if m[k] == nil {
		m[k] = new(V)
	}
	return m[k]
}
