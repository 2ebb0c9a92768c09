// Package pool provides the per-rank worker pool behind CMT-bone's
// second level of concurrency. Ranks are goroutines over the in-process
// communicator; inside a rank, the element-indexed hot loops (derivative
// sweeps, flux evaluation, dealiasing, face gather/scatter) fan out over
// this pool. Elements write disjoint output slices, so results are
// bit-identical at any worker count, and all modeled-time charging stays
// on the rank goroutine — the pool changes wall time only, never the
// virtual clock.
//
// A Pool with one worker runs everything inline on the caller and spawns
// no goroutines, so serial configurations pay nothing.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// job is one fork-join parallel region: workers claim chunk indices from
// next until chunks are exhausted, and wg joins the region.
type job struct {
	n      int // total iterations
	chunks int // number of chunks the range is cut into
	next   atomic.Int64
	wg     sync.WaitGroup
	body   func(chunk, lo, hi int)
}

// Pool is a fixed-size worker pool for fork-join element loops. The
// caller always participates in the loop, so a pool of nw workers uses
// the caller plus nw-1 helper goroutines. Safe for use by one
// dispatching goroutine at a time (each rank owns its pool).
type Pool struct {
	nw   int
	jobs chan *job
	quit chan struct{}
	once sync.Once

	busy atomic.Int64 // helpers currently inside a job body

	// Occupancy and steal counters, redirected into a metrics registry
	// by Observe. Defaults are throwaway instruments, so charging is
	// always valid.
	cJobs   *obs.Counter // parallel regions dispatched
	cChunks *obs.Counter // chunks executed (all workers)
	cSteals *obs.Counter // chunks executed by helpers, i.e. stolen from the caller
	gBusy   *obs.Gauge   // helpers busy at the last dispatch
}

// New returns a pool of the given worker count (values < 1 mean 1).
// A 1-worker pool runs loops inline and starts no goroutines; larger
// pools start workers-1 helper goroutines that live until Close.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		nw:      workers,
		quit:    make(chan struct{}),
		cJobs:   &obs.Counter{},
		cChunks: &obs.Counter{},
		cSteals: &obs.Counter{},
		gBusy:   &obs.Gauge{},
	}
	if workers > 1 {
		p.jobs = make(chan *job, workers-1)
		for i := 1; i < workers; i++ {
			go p.helper()
		}
	}
	return p
}

// DefaultWorkers returns the default pool size for a run of the given
// rank count: the machine's cores divided evenly among ranks, minimum 1.
func DefaultWorkers(ranks int) int {
	if ranks < 1 {
		ranks = 1
	}
	return max(1, runtime.GOMAXPROCS(0)/ranks)
}

// Workers returns the pool's worker count (including the caller).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.nw
}

// For runs body over [0,n) split into contiguous chunks executed
// concurrently by the pool. body(lo, hi) must only write state indexed
// by its own iteration range; it runs on helper goroutines, so it must
// not touch the rank's communicator, clock, or profiler. For returns
// after every iteration has completed.
func (p *Pool) For(n int, body func(lo, hi int)) {
	if p == nil || p.nw == 1 || n <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	// Oversplit (~4 chunks per worker) so uneven chunk costs rebalance.
	chunks := min(n, 4*p.nw)
	p.dispatch(n, chunks, func(_, lo, hi int) { body(lo, hi) })
}

// ForSlots is For with exactly Slots(n) chunks, each told its chunk
// index: body(slot, lo, hi) with slot < Workers(). The slot gives each
// chunk private scratch (per-slot buffers) and a deterministic place to
// park partial reduction values. Chunk c covers [c*n/k, (c+1)*n/k) of
// the k chunks; chunks may run in any order and concurrently.
func (p *Pool) ForSlots(n int, body func(slot, lo, hi int)) {
	k := p.Slots(n)
	if k <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	p.dispatch(n, k, body)
}

// Slots returns how many chunks ForSlots cuts n iterations into:
// min(n, Workers()), and one when the pool runs inline.
func (p *Pool) Slots(n int) int {
	if p == nil || p.nw == 1 || n <= 1 {
		return 1
	}
	return min(n, p.nw)
}

// dispatch runs one fork-join region: offer the job to the helpers
// (non-blocking — a busy pool just leaves more chunks to the caller),
// claim chunks on the caller too, then join.
func (p *Pool) dispatch(n, chunks int, body func(chunk, lo, hi int)) {
	j := &job{n: n, chunks: chunks, body: body}
	j.wg.Add(chunks)
	p.cJobs.Add(1)
	p.gBusy.Set(float64(p.busy.Load()))
	offers := min(chunks-1, p.nw-1)
offer:
	for i := 0; i < offers; i++ {
		select {
		case p.jobs <- j:
		default:
			// All helpers already have work queued or are mid-job; the
			// caller absorbs whatever they don't claim.
			break offer
		}
	}
	p.runChunks(j, false)
	j.wg.Wait()
}

// runChunks claims and executes chunks of j until none remain.
func (p *Pool) runChunks(j *job, helper bool) {
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		lo := c * j.n / j.chunks
		hi := (c + 1) * j.n / j.chunks
		j.body(c, lo, hi)
		p.cChunks.Add(1)
		if helper {
			p.cSteals.Add(1)
		}
		j.wg.Done()
	}
}

func (p *Pool) helper() {
	for {
		select {
		case j := <-p.jobs:
			p.busy.Add(1)
			p.runChunks(j, true)
			p.busy.Add(-1)
		case <-p.quit:
			return
		}
	}
}

// Close stops the helper goroutines. The pool must be idle; For/ForSlots
// must not be called after Close. Closing a 1-worker or nil pool is a
// no-op, and Close is idempotent.
func (p *Pool) Close() {
	if p == nil || p.nw == 1 {
		return
	}
	p.once.Do(func() { close(p.quit) })
}

// Observe redirects the pool's counters into reg under the pool_*
// names. Call before the first dispatch; a nil registry leaves the
// throwaway instruments in place.
func (p *Pool) Observe(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	p.cJobs = reg.Counter("pool_jobs")
	p.cChunks = reg.Counter("pool_chunks")
	p.cSteals = reg.Counter("pool_steals")
	p.gBusy = reg.Gauge("pool_busy_workers")
}

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	Jobs   int64 // parallel regions dispatched
	Chunks int64 // chunks executed in total
	Steals int64 // chunks executed by helper workers
}

// Stats returns the current counter values.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Jobs:   p.cJobs.Value(),
		Chunks: p.cChunks.Value(),
		Steals: p.cSteals.Value(),
	}
}
