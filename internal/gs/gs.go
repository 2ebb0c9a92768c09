// Package gs is the gather-scatter library of the mini-app — the Go
// counterpart of the Nek5000 gs library that both CMT-bone and Nekbone
// inherit (the paper's gs_op_ kernel). A gather-scatter over a vector of
// values, each tagged with a global integer id, combines (sum/min/max/
// prod) every value sharing an id — across all ranks — and writes the
// combined value back to every occurrence.
//
// Setup mirrors Nek's gs_setup: a discovery phase using generalized
// all-to-all communication identifies, for every global id i on process
// p, all processes q that also hold i (Section VI of the paper). The
// exchange itself supports the three algorithms the paper names —
// pairwise exchange, crystal router, and all_reduce onto a big vector —
// plus the startup autotuner that times all three and picks a winner.
package gs

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Method selects the exchange algorithm.
type Method int

// Exchange algorithms evaluated at startup (paper Figure 7).
const (
	// Pairwise sends one message per sharing neighbor, directly.
	Pairwise Method = iota
	// CrystalRouter routes all traffic through a hypercube in
	// ceil(log2 P) stages, combining messages per stage.
	CrystalRouter
	// AllReduce scatters partials onto a dense vector over all shared
	// ids and allreduces it — simple, and too expensive at scale, as the
	// paper observes.
	AllReduce
)

// Methods lists the selectable algorithms.
var Methods = []Method{Pairwise, CrystalRouter, AllReduce}

// ParseMethod maps a command-line name to a Method.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "pairwise":
		return Pairwise, nil
	case "crystal":
		return CrystalRouter, nil
	case "allreduce":
		return AllReduce, nil
	}
	return 0, fmt.Errorf("gs: unknown method %q (want pairwise, crystal, or allreduce)", name)
}

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Pairwise:
		return "pairwise exchange"
	case CrystalRouter:
		return "crystal router"
	case AllReduce:
		return "all_reduce"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// tag for gs point-to-point traffic; per-(source,tag) FIFO ordering keeps
// back-to-back operations separated.
const gsTag = 0x675f // "gs"

// neighbor is one rank this rank shares ids with, plus the canonical
// (id-sorted) list of shared remote slots, identical on both sides.
type neighbor struct {
	rank  int
	slots []int32 // indices into the remote slot list (index.remID)
}

// GS is a configured gather-scatter handle bound to one rank and one id
// layout. It is owned by the rank's goroutine.
type GS struct {
	rank *comm.Rank
	n    int // expected vector length

	// wideN and wideIdx, on a compacted handle (Compact), are the layout
	// it was discovered over: its length and each remote occurrence's
	// index there. A vector of that length is exchanged at those indices.
	wideN   int
	wideIdx []int32

	ix        index      // the flat local map
	neighbors []neighbor // ascending rank order

	// Exchange sites of the blocking entry points: Op's (one field) and
	// OpFields' (k packed fields). Their buffers and receive requests are
	// persistent, so the steady-state exchange posts no allocations.
	one, packed site
	one1        [1][]float64 // Op's vector as a one-field list
	locVals     []float64    // one value per local group (index.local's scratch)
	creq        comm.Request // crystal-router stage receive

	// crystal-router reusable routing state: three item buffers rotated
	// between the live set, the keep partition, and the send partition,
	// plus message staging and a persistent sorter for the per-stage merge.
	itemsA, itemsB, itemsC []item
	stageVals              []float64
	stageInts              []int64
	sorter                 itemSorter

	// all_reduce persistent dense-vector scratch, identity-reset in place
	// on every exchange.
	bigVec []float64

	// all_reduce big vector: globally consistent compact index over
	// remotely-shared ids. Built lazily on first use — at scale it is
	// enormous, which is exactly why the paper finds the method "too
	// expensive".
	globalShared int64   // count of globally distinct remotely-shared ids
	bigIdx       []int32 // per remote slot: dense position
	bigLen       int

	method Method // current default method (set by Tune or SetMethod)

	// pendings counts NewPending calls, assigning each split-phase
	// exchange handle its own deterministic point-to-point tag.
	pendings int

	spans *obs.RankTracer // the owning rank's recorder, for spans around exchanges (nil = off)
}

// Setup builds a gather-scatter handle for the given id vector: ids[i] is
// the global id of values[i] in later Op calls; negative ids mark entries
// that never participate. Setup is collective over all ranks of r.
func Setup(r *comm.Rank, ids []int64) *GS {
	if len(ids) > math.MaxInt32 {
		panic(fmt.Sprintf("gs: vector length %d exceeds the int32 index lists", len(ids)))
	}
	r.SetSite("gs_setup")
	defer r.SetSite("")
	g := &GS{rank: r, n: len(ids), method: Pairwise}
	g.discover(ids)
	g.initSites()
	return g
}

// Compact moves the handle onto a compact layout of n entries: the
// occurrence at index i of the layout it was set up over moves to at(i).
// It is for an exchange-only id vector, whose every active id another
// rank holds (the solver's masked face ids): discovery, its messages and
// its clocks stay those of the wide vector, while the exchange buffers
// hold the rank-boundary points only. Op, OpFields and Pending then take
// vectors of length n, or of the wide length, exchanged at the wide
// indices (for callers that time the exchange over a whole face array);
// Topology records the compact layout. It fails, leaving the
// handle as it was, when the handle holds a local-only id or at does not
// map the occurrences one to one into [0, n).
func (g *GS) Compact(n int, at func(i int32) int32) error {
	ix := &g.ix
	if k := len(ix.pairID) + len(ix.locID); k > 0 {
		return fmt.Errorf("gs: Compact on a handle with %d local-only ids", k)
	}
	idx := make([]int32, len(ix.remIdx))
	seen := make([]bool, n)
	for j, i := range ix.remIdx {
		k := at(i)
		if k < 0 || int(k) >= n || seen[k] {
			return fmt.Errorf("gs: Compact maps index %d to %d, not a free index of [0, %d)", i, k, n)
		}
		seen[k], idx[j] = true, k
	}
	g.wideN, g.wideIdx = g.n, ix.remIdx
	g.n, ix.remIdx = n, idx
	return nil
}

// initSites sizes the exchange state that follows from the index and
// the neighbor lists.
func (g *GS) initSites() {
	g.locVals = make([]float64, len(g.ix.locID))
	g.one, g.packed = g.newSite(gsTag), g.newSite(gsTag+2)
}

// discover is Setup's collective phase: it finds, for every id this rank
// holds, the other ranks holding it, and builds the handle's index and
// neighbor lists from the result. SetupFromTopology builds the same
// lists from a recorded Topology, and Topology exports them.
//
// Each grouping is a run of equal ids after a stable radix sort of int32
// positions (sortByID): this rank's occurrences of an id, and at the
// id's owner the ranks holding it. Runs come out in ascending id order
// and keep input order within, which are the orders the messages and the
// table are canonical in. No id is copied except into a message.
func (g *GS) discover(ids []int64) {
	r := g.rank
	me, p := r.ID(), r.Size()

	// Group local positions by id: run k, pos[runs[k]:runs[k+1]], is the
	// k-th distinct id's group in vector order.
	m := 0
	for _, id := range ids {
		if id >= 0 {
			m++
		}
	}
	pos := make([]int32, 0, m)
	for i, id := range ids {
		if id >= 0 {
			pos = append(pos, int32(i))
		}
	}
	pos, spare := sortByID(ids, pos, nil)
	runs := runStarts(ids, pos)

	// Discovery phase: route each distinct id to a hashed "owner" rank,
	// which observes every rank holding it and replies with the sharer
	// lists. This is the generalized all-to-all of gs_setup.
	owner := func(id int64) int { return int(id % int64(p)) }
	sendCounts := make([]int, p)
	for _, s := range runs[:len(runs)-1] {
		sendCounts[owner(ids[pos[s]])]++
	}
	// The runs are ascending, so one stable pass keeps each
	// destination's ids ascending.
	sendIDs := make([]int64, len(runs)-1)
	next := offsets(sendCounts)
	for _, s := range runs[:len(runs)-1] {
		id := ids[pos[s]]
		q := owner(id)
		sendIDs[next[q]] = id
		next[q]++
	}
	recvIDs, recvCounts := r.AlltoallvInts(sendIDs, sendCounts)

	// The owner sorts the positions of what it received. The ids arrive
	// in ascending-source blocks, so each run lists its id's holders in
	// ascending rank order; a run of two or more is shared.
	from := offsets(recvCounts)
	holder := func(j int32) int64 { return int64(sort.SearchInts(from, int(j)+1) - 1) }
	held := spare[:0]
	for j := range recvIDs {
		held = append(held, int32(j))
	}
	held, _ = sortByID(recvIDs, held, nil)
	hruns := runStarts(recvIDs, held)
	// Reply: for every id held by >= 2 ranks, tell each holder the full
	// holder list, encoded [id, m, rank0..rank_{m-1}].
	replyCounts := make([]int, p)
	shared := 0
	for k := 0; k+1 < len(hruns); k++ {
		hs := held[hruns[k]:hruns[k+1]]
		if len(hs) < 2 {
			continue
		}
		shared++
		for _, j := range hs {
			replyCounts[holder(j)] += 2 + len(hs)
		}
	}
	next = offsets(replyCounts)
	reply := make([]int64, next[p])
	for k := 0; k+1 < len(hruns); k++ {
		hs := held[hruns[k]:hruns[k+1]]
		if len(hs) < 2 {
			continue
		}
		for _, j := range hs {
			q := holder(j)
			c := next[q]
			reply[c], reply[c+1] = recvIDs[hs[0]], int64(len(hs))
			for x, h := range hs {
				reply[c+2+x] = holder(h)
			}
			next[q] = c + 2 + len(hs)
		}
	}
	gotReply, gotCounts := r.AlltoallvInts(reply, replyCounts)

	// Each of this rank's remotely-shared ids has exactly one reply
	// entry, in its owner's block, and every block is in ascending id
	// order: one cursor per owner meets the entries as the runs come.
	// Active ids — remotely shared, or duplicated locally — are visited
	// twice, to size the lists and then to fill them in place.
	end := offsets(gotCounts)
	cur := make([]int, p)
	eachActive := func(visit func(id int64, occ []int32, holders []int64)) {
		copy(cur, end)
		for k := 0; k+1 < len(runs); k++ {
			occ := pos[runs[k]:runs[k+1]]
			id := ids[occ[0]]
			var hs []int64
			q := owner(id)
			if c := cur[q]; c < end[q+1] && gotReply[c] == id {
				hs = gotReply[c+2 : c+2+int(gotReply[c+1])]
				cur[q] = c + 2 + len(hs)
			}
			if hs != nil || len(occ) > 1 {
				visit(id, occ, hs)
			}
		}
	}
	var size indexSize
	nbCount := make([]int, p)
	eachActive(func(_ int64, occ []int32, hs []int64) {
		size.add(hs != nil, len(occ))
		for _, q := range hs {
			if int(q) != me {
				nbCount[q]++
			}
		}
	})
	// Per-neighbor remote slot lists, canonical because the remote slots
	// are id-sorted on every rank: windows of one flat array, filled in
	// slot order.
	g.ix = newIndex(size)
	next = offsets(nbCount)
	slots := make([]int32, next[p])
	eachActive(func(id int64, occ []int32, hs []int64) {
		s := addGroup(&g.ix, id, hs != nil, occ)
		for _, q := range hs {
			if int(q) != me {
				slots[next[q]] = s
				next[q]++
			}
		}
	})
	for q, c := range nbCount {
		if c > 0 {
			g.neighbors = append(g.neighbors, neighbor{rank: q, slots: slots[next[q]-c : next[q] : next[q]]})
		}
	}

	// Exact global count of distinct remotely-shared ids: each owner
	// counts the shared ids it adjudicated; one integer allreduce sums
	// them. This sizes the all_reduce big vector without building it.
	counts := r.AllreduceInts(comm.OpSum, []int64{int64(shared)})
	g.globalShared = counts[0]
}

// sortByID stably sorts the positions perm by keys[perm[i]], for
// non-negative keys: a least-significant-digit radix sort with one
// counting pass per 8-bit digit up to the largest key's top digit,
// skipping a digit every key shares. tmp is its scratch (allocated when
// shorter than perm). It returns the sorted positions and the other of
// the two buffers, free for the caller's next use.
func sortByID(keys []int64, perm, tmp []int32) (sorted, spare []int32) {
	if cap(tmp) < len(perm) {
		tmp = make([]int32, len(perm))
	}
	tmp = tmp[:len(perm)]
	if len(perm) < 2 {
		return perm, tmp
	}
	var top int64 // has the largest key's top bit
	for _, j := range perm {
		top |= keys[j]
	}
	for shift := 0; shift < 63 && top>>shift != 0; shift += 8 {
		var at [256]int
		for _, j := range perm {
			at[keys[j]>>shift&0xff]++
		}
		if at[keys[perm[0]]>>shift&0xff] == len(perm) {
			continue
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, j := range perm {
			d := keys[j] >> shift & 0xff
			tmp[at[d]] = j
			at[d]++
		}
		perm, tmp = tmp, perm
	}
	return perm, tmp
}

// runStarts returns where each run of equal keys[perm[i]] starts, then
// len(perm).
func runStarts(keys []int64, perm []int32) []int32 {
	n := 0
	for i, j := range perm {
		if i == 0 || keys[j] != keys[perm[i-1]] {
			n++
		}
	}
	starts := make([]int32, 0, n+1)
	for i, j := range perm {
		if i == 0 || keys[j] != keys[perm[i-1]] {
			starts = append(starts, int32(i))
		}
	}
	return append(starts, int32(len(perm)))
}

// offsets returns the exclusive prefix sums of counts: where each
// bucket starts, then the total.
func offsets(counts []int) []int {
	off := make([]int, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return off
}

// bigScratch returns the persistent all_reduce dense-vector scratch,
// grown to at least n and sliced to exactly n. Contents are whatever the
// previous exchange left — callers reset with the op identity in place.
func (g *GS) bigScratch(n int) []float64 {
	if cap(g.bigVec) < n {
		g.bigVec = make([]float64, n)
	}
	return g.bigVec[:n]
}

// ensureBigVector lazily builds the globally consistent dense index for
// the all_reduce method: the sorted union of every rank's remotely-shared
// ids. Collective — it runs inside the (collective) all_reduce exchange,
// so every rank reaches it together. Deliberately non-scalable: this IS
// the "big vector" method.
func (g *GS) ensureBigVector() {
	if g.bigIdx != nil {
		return
	}
	r := g.rank
	mine := g.ix.remID
	counts := r.AllgatherInts(int64(len(mine)))
	maxCount := int64(0)
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	padded := make([]float64, maxCount)
	for i := range padded {
		padded[i] = -1
	}
	for i, id := range mine {
		padded[i] = float64(id)
	}
	all := r.Allgather(padded)
	var union []int64
	for src := 0; src < r.Size(); src++ {
		for k := int64(0); k < counts[src]; k++ {
			union = append(union, int64(all[int64(src)*maxCount+k]))
		}
	}
	slices.Sort(union)
	union = slices.Compact(union)
	g.bigLen = len(union)
	g.bigIdx = make([]int32, len(mine))
	for m, id := range mine {
		k, _ := slices.BinarySearch(union, id)
		g.bigIdx[m] = int32(k)
	}
}

// Neighbors returns the ranks this rank exchanges shared values with.
func (g *GS) Neighbors() []int {
	out := make([]int, len(g.neighbors))
	for i, nb := range g.neighbors {
		out[i] = nb.rank
	}
	return out
}

// SharedSlots returns the number of active (shared or locally duplicated)
// ids on this rank.
func (g *GS) SharedSlots() int {
	return len(g.ix.pairID) + len(g.ix.locID) + len(g.ix.remID)
}

// BigVectorLen returns the length of the dense vector the all_reduce
// method would operate on — a direct measure of why it does not scale.
// It is known exactly without building the vector.
func (g *GS) BigVectorLen() int { return int(g.globalShared) }

// AllReduceMaxLen is the big-vector length above which the tuner deems
// the all_reduce method infeasible and skips timing it, as the paper's
// problem setups do ("all_reduce is too expensive for both mini-apps").
const AllReduceMaxLen = 1 << 20

// FeasibleMethods returns the exchange methods worth timing for this
// handle's pattern: all of them, unless the all_reduce big vector would
// be unreasonably large.
func (g *GS) FeasibleMethods() []Method {
	if g.globalShared > AllReduceMaxLen {
		return []Method{Pairwise, CrystalRouter}
	}
	return Methods
}

// SetSpanner attaches the owning rank's region recorder: every exchange
// emits one span on that rank's track — a span only, so the caller's
// region around the exchange stays the one Figure 4 row. nil (the
// default) disables it.
func (g *GS) SetSpanner(rt *obs.RankTracer) { g.spans = rt }

// Method returns the currently selected default exchange method.
func (g *GS) Method() Method { return g.method }

// SetMethod overrides the default exchange method.
func (g *GS) SetMethod(m Method) { g.method = m }

// Op performs the gather-scatter with the default method.
func (g *GS) Op(values []float64, op comm.ReduceOp) {
	g.OpWith(values, op, g.method)
}

// OpWith performs the gather-scatter with an explicit method: all values
// sharing a global id — across every rank — are combined with op, and the
// combined value replaces each of them. OpWith is collective: every rank
// must call it with the same op and method.
func (g *GS) OpWith(values []float64, op comm.ReduceOp, m Method) {
	g.one1[0] = values
	g.run(g.one1[:], op, m, &g.one, "gs_op")
	g.one1[0] = nil
}

// OpFields performs the gather-scatter over k field vectors at once,
// packing all fields' partials into a single message per neighbor — the
// Nek gs library's gs_op_fields. For a solver exchanging five conserved
// variables this trades 5 latency-bound messages per neighbor for one
// bandwidth-bound message, the latency/bandwidth trade the ablation
// benches quantify. Semantics match calling Op on each field.
//
// The packed path is implemented for Pairwise and AllReduce; the crystal
// router routes per-field (its per-stage merging already aggregates
// traffic), which keeps results identical across methods.
func (g *GS) OpFields(fields [][]float64, op comm.ReduceOp, m Method) {
	if len(fields) == 0 {
		return
	}
	g.run(fields, op, m, &g.packed, "gs_op_fields")
}

// checkFields panics unless every field is a vector of the handle's
// length — or, on a compacted handle, every one of the wide length — and
// returns the remote occurrences' indices in that layout.
func (g *GS) checkFields(fields [][]float64) []int32 {
	n, idx := g.n, g.ix.remIdx
	if g.wideIdx != nil && len(fields) > 0 && len(fields[0]) == g.wideN {
		n, idx = g.wideN, g.wideIdx
	}
	for fi, f := range fields {
		if len(f) != n {
			panic(fmt.Sprintf("gs: field %d has length %d, setup saw %d", fi, len(f), n))
		}
	}
	return idx
}

// run is the one gather-scatter body behind every blocking entry point:
// gather the remotely-shared slots of each field into st's partials,
// exchange them by method m, finish the local-only ids, and scatter the
// exchanged slots. Under Pairwise the local pass runs between posting the
// messages and waiting for them, where it costs the exchange nothing.
func (g *GS) run(fields [][]float64, op comm.ReduceOp, m Method, st *site, span string) {
	idx := g.checkFields(fields)
	g.rank.SetSite("gs_op")
	defer g.rank.SetSite("")
	defer g.spans.Span(span, obs.CatGS).End()

	k, nr := len(fields), len(g.ix.remID)
	g.gatherRemote(st, fields, op, idx)
	if m == Pairwise {
		g.post(st, k)
	}
	g.localPass(fields, op)
	switch m {
	case Pairwise:
		g.complete(st, k, op)
	case CrystalRouter:
		// Per-field routing.
		for fi := 0; fi < k; fi++ {
			g.exchangeCrystal(op, st.partial[fi*nr:(fi+1)*nr])
		}
	case AllReduce:
		g.exchangeAllReduce(op, st.partial[:k*nr], k)
	default:
		panic(fmt.Sprintf("gs: unknown method %d", int(m)))
	}
	g.scatterRemote(fields, st, idx)
}

// gatherRemote folds each field's remotely-shared slots, at the remote
// occurrences idx, into st's partials, field-major: partial[fi*nr+slot].
func (g *GS) gatherRemote(st *site, fields [][]float64, op comm.ReduceOp, idx []int32) {
	nr := len(g.ix.remID)
	if cap(st.partial) < len(fields)*nr {
		st.partial = make([]float64, len(fields)*nr)
	}
	for fi, f := range fields {
		gather(st.partial[fi*nr:(fi+1)*nr], f, g.ix.remOff, idx, op)
	}
}

// localPass finishes every local-only id of every field.
func (g *GS) localPass(fields [][]float64, op comm.ReduceOp) {
	for _, f := range fields {
		g.ix.local(f, g.locVals, op)
	}
}

// scatterRemote writes st's exchanged partials to every occurrence, idx,
// of the remotely-shared slots.
func (g *GS) scatterRemote(fields [][]float64, st *site, idx []int32) {
	nr := len(g.ix.remID)
	for fi, f := range fields {
		scatter(f, st.partial[fi*nr:(fi+1)*nr], g.ix.remOff, idx)
	}
}
