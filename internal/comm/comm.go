// Package comm is an in-process message-passing runtime that reproduces
// the MPI communication patterns CMT-bone exercises: tagged point-to-point
// sends and receives (blocking and nonblocking), the collectives used by
// the gather-scatter library (barrier, broadcast, reduce, allreduce,
// gather, allgather, alltoall, alltoallv), and Cartesian topology helpers.
//
// There is no mature MPI for Go, so ranks are goroutines and the transport
// is per-rank mailboxes with MPI-style (source, tag) matching and
// non-overtaking order. Sends are eager (buffered) and never block, which
// matches the small-message regime of the mini-app and keeps the runtime
// deadlock-free by construction; all waiting happens on the receive side,
// exactly where the paper observes it (MPI_Wait, Figure 9). When the
// world has no more ranks than GOMAXPROCS, a blocked receive polls
// briefly before it parks (mailbox.await), sparing an exchange the
// goroutine park and wake-up; behind a Transport each poll also reads
// the rank's sockets (Transport.Poll), so a frame from another process
// reaches a polling rank without waking anything. Modeled time is
// unaffected.
//
// Two kinds of time are tracked. Host wall time is measured around every
// operation, giving an mpiP-style profile (Figures 8-10). In addition each
// rank carries a netmodel.Clock, a virtual clock advanced by an alpha-beta
// network model, so the same run also yields cluster-scale modeled
// timings — the "robust network models for system simulation" the paper's
// Section VI motivates.
package comm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netmodel"
)

// Wildcards for Recv/Irecv/Probe matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Options configures a communicator run.
type Options struct {
	// Model is the network cost model; the zero value selects
	// netmodel.Loopback.
	Model netmodel.Model
	// Grid, when non-zero, declares a 3D processor grid of exactly
	// Grid[0]*Grid[1]*Grid[2] == size ranks. It enables the Cartesian
	// helpers on Rank and distance-sensitive message costs.
	Grid [3]int
	// Periodic marks each grid dimension as wrapping. Only meaningful
	// with Grid.
	Periodic [3]bool
	// Tracer, when non-nil, receives every wire-level message (see
	// TraceEvent) for offline network modeling.
	Tracer Tracer
	// Faults, when non-nil, installs a fault-injection plane that sees
	// every wire message and may drop (with retransmit), corrupt (with
	// CRC detection and retransmit) or delay it. Installing a fault
	// plane turns CRC framing on.
	Faults FaultPlane
	// Hierarchy, when non-nil, declares the node grouping of the ranks
	// (which ranks share a physical node), and the communicator runs the
	// two-level hierarchical collectives over it; nil runs the flat ones.
	// On power-of-two block layouts the two are bit-identical; other
	// layouts give correct results that may differ in the last bits of
	// float reductions (see Hierarchy).
	Hierarchy *Hierarchy
}

// Comm is the shared state of one communicator: the mailboxes and the
// collected per-rank profiles. It is created by Run and not used directly.
type Comm struct {
	size     int
	model    netmodel.Model
	boxes    []*mailbox
	grid     [3]int
	periodic [3]bool
	hasGrid  bool
	tracer   Tracer

	// Hierarchical-collective state. hier is the node grouping; the
	// collectives are hierarchical exactly when it is non-nil. flatFlows
	// is the per-node concurrent-sender count flat collectives declare to
	// topology congestion pricing (every rank of a node injects at once).
	hier      *Hierarchy
	flatFlows int

	// Fault plane state. faults is inherited by shrunken
	// sub-communicators and turns CRC framing on; dead is
	// per-communicator (one flag per member), set by Rank.Kill and
	// observed by blocked receives.
	faults FaultPlane
	dead   []atomic.Bool

	// Shrink bookkeeping. parent/parentOf link a shrunken communicator
	// to the one it was carved from (parentOf[i] = member i's id in the
	// parent); worldOf[i] is member i in the original world numbering
	// (nil = identity). children dedups Shrink calls so every member of
	// the same member list shares one sub-communicator.
	parent   *Comm
	parentOf []int
	worldOf  []int
	childMu  sync.Mutex
	children map[string]*Comm

	// Fault-plane counters, aggregated into Stats (including children).
	crcDetected atomic.Int64
	retransmits atomic.Int64

	// Distributed-run state, set only on the root (world) communicator of
	// a RunDistributed process and reached through root from
	// sub-communicators. localWorld[w] reports whether world rank w is
	// hosted in this process; nil means all ranks are local (the
	// in-process backend), which keeps the hot send path free of any
	// transport overhead. ctx is this communicator's routing id in the
	// per-process registry (worldCtx for the world communicator).
	root       *Comm
	transport  Transport
	localWorld []bool
	reg        *ctxRegistry
	ctx        uint64
}

// rankDead reports whether member id of this communicator was killed.
func (c *Comm) rankDead(id int) bool { return c.dead[id].Load() }

// firstDead returns the lowest dead member id among members (every
// member of the communicator when members is nil), or -1 when all are
// alive.
func (c *Comm) firstDead(members []int) int {
	if members == nil {
		for id := 0; id < c.size; id++ {
			if c.dead[id].Load() {
				return id
			}
		}
		return -1
	}
	for _, id := range members {
		if c.dead[id].Load() {
			return id
		}
	}
	return -1
}

// worldIDOf translates a member id of this communicator to the original
// world numbering.
func (c *Comm) worldIDOf(id int) int {
	if c.worldOf == nil {
		return id
	}
	return c.worldOf[id]
}

// markDead flags member id of this communicator (and the corresponding
// member of every ancestor communicator) as dead and wakes all blocked
// receivers so they can observe it. The dead flag is set before each
// mailbox's lock is taken to broadcast, which makes the wakeup race-free
// (see mailbox.wake).
func (c *Comm) markDead(id int) {
	for c != nil {
		c.dead[id].Store(true)
		for _, b := range c.boxes {
			b.wake()
		}
		if c.parent == nil {
			return
		}
		id = c.parentOf[id]
		c = c.parent
	}
}

// closeAll closes every mailbox of this communicator and, recursively, of
// every shrunken sub-communicator, so an abort unwinds ranks blocked at
// any communicator level.
func (c *Comm) closeAll() {
	for _, b := range c.boxes {
		b.close()
	}
	c.childMu.Lock()
	kids := make([]*Comm, 0, len(c.children))
	for _, k := range c.children {
		kids = append(kids, k)
	}
	c.childMu.Unlock()
	for _, k := range kids {
		k.closeAll()
	}
}

// faultTotals sums the fault-plane counters over this communicator and
// all shrunken sub-communicators.
func (c *Comm) faultTotals() (crcDetected, retransmits int64) {
	crcDetected = c.crcDetected.Load()
	retransmits = c.retransmits.Load()
	c.childMu.Lock()
	kids := make([]*Comm, 0, len(c.children))
	for _, k := range c.children {
		kids = append(kids, k)
	}
	c.childMu.Unlock()
	for _, k := range kids {
		a, b := k.faultTotals()
		crcDetected += a
		retransmits += b
	}
	return crcDetected, retransmits
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// hops returns the switch-hop distance between two ranks: Manhattan
// distance on the processor grid when one is declared, else 1.
func (c *Comm) hops(src, dst int) int {
	if !c.hasGrid || src == dst {
		return 1
	}
	a, b := c.coordsOf(src), c.coordsOf(dst)
	h := 0
	for d := 0; d < 3; d++ {
		diff := a[d] - b[d]
		if diff < 0 {
			diff = -diff
		}
		if c.periodic[d] && c.grid[d]-diff < diff {
			diff = c.grid[d] - diff
		}
		h += diff
	}
	if h < 1 {
		h = 1
	}
	return h
}

func (c *Comm) coordsOf(rank int) [3]int {
	nx, ny := c.grid[0], c.grid[1]
	return [3]int{rank % nx, (rank / nx) % ny, rank / (nx * ny)}
}

func (c *Comm) rankOf(coords [3]int) int {
	return coords[0] + c.grid[0]*(coords[1]+c.grid[1]*coords[2])
}

// Stats is the result of a completed Run: one profile and final virtual
// time per rank, plus overall host wall time.
type Stats struct {
	Size         int
	Wall         float64    // host wall seconds for the whole run
	VirtualTimes []float64  // final netmodel clock per rank
	Profiles     []*Profile // per-rank MPI profiles, indexed by rank

	// OverlapHidden is the modeled communication time each rank hid
	// behind compute via split-phase exchanges (see
	// netmodel.Clock.AccountOverlap). Zero when overlap is not used.
	OverlapHidden []float64

	// Killed lists the world ranks that died via Rank.Kill, ascending.
	// A killed rank does not abort the run; its survivors' results are
	// still valid.
	Killed []int
	// CRCDetected counts receive-side CRC rejections (each followed by a
	// successful retransmission) across the run, including shrunken
	// sub-communicators. With a fault plane installed this equals the
	// corruptions that were actually received — zero silent corruption.
	CRCDetected int64
	// Retransmits counts messages the fault plane dropped or corrupted,
	// each of which cost one modeled retransmission timeout.
	Retransmits int64
}

// TotalOverlapHidden sums the modeled communication seconds hidden
// behind compute across all ranks.
func (s *Stats) TotalOverlapHidden() float64 {
	sum := 0.0
	for _, h := range s.OverlapHidden {
		sum += h
	}
	return sum
}

// MaxVirtualTime returns the slowest rank's modeled completion time, the
// modeled makespan of the run.
func (s *Stats) MaxVirtualTime() float64 {
	max := 0.0
	for _, t := range s.VirtualTimes {
		if t > max {
			max = t
		}
	}
	return max
}

// newComm builds a world communicator from Options. It is shared by Run
// (t nil: all ranks local) and RunDistributed (behind transport t).
func newComm(size int, opts Options, t Transport) (*Comm, error) {
	model := opts.Model
	if model.Name == "" {
		model = netmodel.Loopback
	}
	c := &Comm{size: size, model: model, tracer: opts.Tracer, transport: t}
	c.root = c
	c.faults = opts.Faults
	c.dead = make([]atomic.Bool, size)
	if topo := model.Topo; topo != nil && topo.Ranks() < size {
		return nil, fmt.Errorf("comm: topology %s hosts %d ranks, need %d", topo.Name(), topo.Ranks(), size)
	}
	c.hier = opts.Hierarchy
	if c.hier != nil && c.hier.size() != size {
		return nil, fmt.Errorf("comm: hierarchy maps %d ranks, communicator has %d", c.hier.size(), size)
	}
	c.flatFlows = 1
	if c.hier != nil {
		c.flatFlows = c.hier.MaxRanksPerNode()
	} else if model.Topo != nil {
		c.flatFlows = model.Topo.RanksPerNode()
	}
	if opts.Grid != [3]int{} {
		if opts.Grid[0]*opts.Grid[1]*opts.Grid[2] != size {
			return nil, fmt.Errorf("comm: grid %v does not tile %d ranks", opts.Grid, size)
		}
		c.grid = opts.Grid
		c.periodic = opts.Periodic
		c.hasGrid = true
	}
	// The wait gate: a blocked receive polls before it parks iff the
	// world has no more ranks than GOMAXPROCS, in Run and RunDistributed
	// alike, and shrunken sub-communicators inherit the decision. Counting
	// the world rather than this process's ranks is what keeps an
	// oversubscribed multi-process run parking: a 4-process `cmtbone -np
	// 4 -n 5 -local 2 -steps 300` over TCP on a 2-vCPU x86-64 guest took
	// a median 3.13 s when every process polled because its one local
	// rank fits, against 2.96 s under this rule (slower in 5 of 7
	// alternating pairs, even with await's back-off), and under this rule
	// it ran as fast as when every TCP wait parked at once (3.60 against
	// 3.62 s, 5 pairs).
	budget := time.Duration(0)
	if size <= runtime.GOMAXPROCS(0) {
		budget = spinBudget
	}
	c.boxes = make([]*mailbox, size)
	for i := range c.boxes {
		c.boxes[i] = newMailbox(budget, t)
	}
	return c, nil
}

// runRanks spawns one goroutine per rank in locals, each executing fn,
// and waits for all of them — the shared execution core of Run and
// RunDistributed. The first error (or recovered panic) aborts the run:
// all mailboxes are closed so blocked ranks unwind promptly. Ranks not in
// locals are hosted elsewhere; their Stats entries stay zero (with empty
// profiles, so aggregations need no nil checks).
func runRanks(c *Comm, locals []int, fn func(*Rank) error) (*Stats, error) {
	size := c.size
	stats := &Stats{
		Size:          size,
		VirtualTimes:  make([]float64, size),
		Profiles:      make([]*Profile, size),
		OverlapHidden: make([]float64, size),
	}
	for id := 0; id < size; id++ {
		stats.Profiles[id] = newProfile(id)
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	var abortOnce sync.Once
	abort := func() {
		abortOnce.Do(c.closeAll)
	}
	var killedMu sync.Mutex

	start := time.Now()
	for _, id := range locals {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := &Rank{
				comm:  c,
				id:    id,
				clock: netmodel.NewClock(c.model),
				prof:  newProfile(id),
			}
			defer func() {
				if p := recover(); p != nil {
					switch v := p.(type) {
					case killPanic:
						// An injected crash, not a failure: record the
						// death and let the survivors run on.
						killedMu.Lock()
						stats.Killed = append(stats.Killed, v.world)
						killedMu.Unlock()
					case error:
						if p == errAborted {
							errs[id] = fmt.Errorf("comm: rank %d aborted: %w", id, errAborted)
						} else {
							errs[id] = fmt.Errorf("comm: rank %d panicked: %w", id, v)
						}
						abort()
					default:
						errs[id] = fmt.Errorf("comm: rank %d panicked: %v", id, p)
						abort()
					}
				}
				r.prof.appWall = time.Since(start).Seconds()
				stats.VirtualTimes[id] = r.clock.Now()
				stats.OverlapHidden[id] = r.clock.OverlapHiddenSeconds()
				stats.Profiles[id] = r.prof
			}()
			if err := fn(r); err != nil {
				errs[id] = err
				abort()
			}
		}(id)
	}
	wg.Wait()
	stats.Wall = time.Since(start).Seconds()
	sort.Ints(stats.Killed)
	stats.CRCDetected, stats.Retransmits = c.faultTotals()
	// Report the root cause: a rank's own error or panic, not the
	// secondary "aborted" unwinds it triggered in its peers.
	var aborted error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, errAborted) {
			aborted = err
			continue
		}
		return nil, err
	}
	if aborted != nil {
		return nil, aborted
	}
	return stats, nil
}

// Run spawns size ranks, each executing fn concurrently, and waits for all
// of them. The first error (or recovered panic) aborts the run: all
// mailboxes are closed so blocked ranks unwind promptly. On success the
// returned Stats carries every rank's MPI profile and virtual clock.
func Run(size int, opts Options, fn func(*Rank) error) (*Stats, error) {
	if size < 1 {
		return nil, fmt.Errorf("comm: size must be >= 1, got %d", size)
	}
	c, err := newComm(size, opts, nil)
	if err != nil {
		return nil, err
	}
	locals := make([]int, size)
	for i := range locals {
		locals[i] = i
	}
	return runRanks(c, locals, fn)
}

// RunSimple is Run with the loopback network model and no grid. It is the
// form most tests use.
func RunSimple(size int, fn func(*Rank) error) (*Stats, error) {
	return Run(size, Options{}, fn)
}
