// Split-phase gather-scatter: the Begin/Finish pair that lets a caller
// overlap the neighbor exchange with independent local compute, mirroring
// gslib's gs_op begin/finish entry points (igs_op in Nek5000). Begin
// gathers only the remotely-shared slots and posts the pairwise sends and
// receives; the caller then runs interior work; Finish combines the
// local-only slots, completes the receives, and scatters everything back.
//
// Bit-identity with the blocking OpFields is by construction: both are
// the same kernels — remote gather, post, local pass, complete, remote
// scatter (GS.run) — and Begin/Finish only cut that sequence in two
// around the caller's interior phase. Remotely shared slots never mix
// with local-only ids, so gathering the two classes on opposite sides of
// it is a pure reordering of independent work.
package gs

import (
	"repro/internal/comm"
	"repro/internal/obs"
)

// Pending is one in-flight split-phase exchange. A Pending is created
// once per concurrent exchange site (NewPending) and reused every step;
// its buffers and requests are persistent, so the steady state allocates
// nothing. It is owned by the rank's goroutine, like the GS handle.
//
// Only the pairwise method runs split-phase; under the crystal router or
// all_reduce (whose collectives cannot be posted halfway) Begin records
// the arguments and Finish falls back to the blocking OpFieldsTo, so
// callers never need to special-case the tuned method.
type Pending struct {
	g        *GS
	st       site // distinct tag per Pending, so concurrent exchanges never mix
	op       comm.ReduceOp
	dst, src [][]float64

	active   bool
	fallback bool
	t0       float64 // virtual time Begin posted the exchange
}

// NewPending allocates a reusable split-phase exchange handle. Tags are
// assigned from the handle's creation order, so ranks that create their
// Pendings in the same (deterministic) order agree on tags without
// communicating.
func (g *GS) NewPending() *Pending {
	p := &Pending{g: g, st: g.newSite(gsTag + 3 + g.pendings)}
	g.pendings++
	return p
}

// Begin starts a gather-scatter of the k field vectors src into dst (dst
// may be src; see OpTo for what is written): it gathers the
// remotely-shared slots, posts one packed send per neighbor, and posts
// the matching receives. The caller may then produce any src entries
// that do not belong to remotely-shared groups (interior work) before
// calling Finish. Begin/Finish pairs on the same Pending must not nest.
func (p *Pending) Begin(dst, src [][]float64, op comm.ReduceOp) {
	if p.active {
		panic("gs: Begin on an already-active Pending")
	}
	g := p.g
	g.checkFields(dst, src)
	p.active = true
	p.op = op
	p.dst = append(p.dst[:0], dst...)
	p.src = append(p.src[:0], src...)
	p.fallback = g.method != Pairwise || len(src) == 0
	if p.fallback {
		return
	}

	r := g.rank
	r.SetSite("gs_op")
	defer r.SetSite("")
	defer g.spans.Span("gs_begin", obs.CatGS).End()

	p.t0 = r.Clock().Now()
	// Every occurrence of a remotely-shared id lives on a boundary
	// element, which the caller has finished before Begin. Local-only ids
	// wait for Finish.
	g.gatherRemote(&p.st, src, op)
	g.post(&p.st, len(src))
}

// Finish completes the exchange begun by Begin: it finishes the local-only
// ids, waits for every neighbor's message (combining in ascending rank
// order, as the blocking path does), scatters the exchanged slots into
// dst, and accounts the communication time hidden behind the compute the
// caller ran between Begin and Finish.
func (p *Pending) Finish() {
	if !p.active {
		panic("gs: Finish without Begin")
	}
	p.active = false
	g := p.g
	if p.fallback {
		g.OpFieldsTo(p.dst, p.src, p.op, g.method)
		return
	}

	r := g.rank
	r.SetSite("gs_op")
	defer r.SetSite("")
	defer g.spans.Span("gs_finish", obs.CatGS).End()

	// Now that the caller's interior phase has produced every vector entry.
	g.localPass(p.dst, p.src, p.op)

	// The compute between Begin and Finish ends here; anything the wire
	// delivered before this instant was hidden behind it.
	computeEnd := r.Clock().Now()
	lastArrival := max(p.t0, g.complete(&p.st, len(p.src), p.op))
	if len(g.neighbors) > 0 {
		r.Clock().AccountOverlap(p.t0, computeEnd, lastArrival)
	}
	g.scatterRemote(p.dst, &p.st)
}

// RemoteShared reports, per vector index of the setup id layout, whether
// that entry's id is held by another rank. Solvers use it to classify
// elements into boundary (any remotely-shared face point) and interior
// sets for compute/communication overlap.
func (g *GS) RemoteShared() []bool {
	out := make([]bool, g.n)
	for _, idx := range g.ix.remIdx {
		out[idx] = true
	}
	return out
}
