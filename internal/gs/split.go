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
// the arguments and Finish falls back to the blocking OpFields, so
// callers never need to special-case the tuned method.
type Pending struct {
	g      *GS
	st     site // distinct tag per Pending, so concurrent exchanges never mix
	op     comm.ReduceOp
	fields [][]float64
	idx    []int32 // the remote occurrences in the fields' layout

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

// Begin starts an in-place gather-scatter of the k field vectors, as
// OpFields: it gathers the remotely-shared slots, posts one packed send
// per neighbor, and posts the matching receives. The caller may then
// produce any entries that do not belong to remotely-shared groups
// (interior work) before calling Finish. Begin/Finish pairs on the same
// Pending must not nest.
func (p *Pending) Begin(fields [][]float64, op comm.ReduceOp) {
	if p.active {
		panic("gs: Begin on an already-active Pending")
	}
	g := p.g
	p.idx = g.checkFields(fields)
	p.active = true
	p.op = op
	p.fields = append(p.fields[:0], fields...)
	p.fallback = g.method != Pairwise || len(fields) == 0
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
	g.gatherRemote(&p.st, fields, op, p.idx)
	g.post(&p.st, len(fields))
}

// Finish completes the exchange begun by Begin: it finishes the local-only
// ids, waits for every neighbor's message (combining in ascending rank
// order, as the blocking path does), scatters the exchanged slots, and
// accounts the communication time hidden behind the compute the caller
// ran between Begin and Finish.
func (p *Pending) Finish() {
	if !p.active {
		panic("gs: Finish without Begin")
	}
	p.active = false
	g := p.g
	if p.fallback {
		g.OpFields(p.fields, p.op, g.method)
		return
	}

	r := g.rank
	r.SetSite("gs_op")
	defer r.SetSite("")
	defer g.spans.Span("gs_finish", obs.CatGS).End()

	// Now that the caller's interior phase has produced every vector entry.
	g.localPass(p.fields, p.op)

	// The compute between Begin and Finish ends here; anything the wire
	// delivered before this instant was hidden behind it.
	computeEnd := r.Clock().Now()
	lastArrival := max(p.t0, g.complete(&p.st, len(p.fields), p.op))
	if len(g.neighbors) > 0 {
		r.Clock().AccountOverlap(p.t0, computeEnd, lastArrival)
	}
	g.scatterRemote(p.fields, &p.st, p.idx)
}
