// Package netmodel provides an analytic communication cost model used to
// attach cluster-scale network timings to the in-process message-passing
// runtime in internal/comm.
//
// The real transport in this repository is a Go channel; its latency has
// nothing to do with the Infiniband fabric the paper measured on. To
// reproduce the paper's communication results (Figures 7-10) each rank
// carries a virtual clock, and every message advances it according to a
// classic alpha-beta (latency + inverse-bandwidth) model:
//
//	t(message of s bytes) = Alpha + Beta*s
//
// Senders stamp messages with their virtual send time plus the transfer
// cost; receivers advance their clock to max(own, arrival). Computation
// phases advance the clock by measured wall time scaled by a configurable
// compute-speed factor. The result is a LogP-style simulation in which
// synchronization effects — in particular the MPI_Wait skew the paper
// highlights in Figure 9 — emerge naturally.
package netmodel

import "fmt"

// Model holds the parameters of an alpha-beta network plus a relative
// compute speed, describing one machine. The zero value is unusable; use
// one of the presets or fill in every field.
type Model struct {
	// Name identifies the preset in reports.
	Name string
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is the per-byte transfer time in seconds (1/bandwidth).
	Beta float64
	// GammaCompute scales measured local compute wall time onto the
	// modeled machine: modeled = measured * GammaCompute. 1.0 means the
	// modeled machine computes exactly as fast as the host.
	GammaCompute float64
	// SwitchHops, when > 0, adds Alpha*hops extra latency per message
	// based on the Manhattan distance between ranks in the processor
	// grid; 0 disables distance sensitivity (flat network).
	SwitchHops float64
	// InjectionFactor is the fraction of a message's wire time the
	// *sender* is stalled for (LogGP's gap-per-byte): 0 models a fully
	// offloading NIC (sender pays only Alpha), 1 models a transport
	// where the host CPU drives every byte. Affects how much
	// communication a rank can overlap.
	InjectionFactor float64
	// Topo, when non-nil, replaces the flat Alpha/Beta/SwitchHops
	// pricing with link-graph topology pricing (see Topology): messages
	// are priced along their minimal route with distinct intra-node vs
	// inter-node parameters and deterministic congestion factors. The
	// flat Alpha/Beta still describe the fabric's headline figures for
	// reports; InjectionFactor applies unchanged.
	Topo *Topology
}

// Cost returns the modeled time to move size bytes over hops switch hops.
func (m Model) Cost(size int, hops int) float64 {
	c := m.Alpha + m.Beta*float64(size)
	if m.SwitchHops > 0 && hops > 1 {
		c += m.Alpha * m.SwitchHops * float64(hops-1)
	}
	return c
}

// String implements fmt.Stringer.
func (m Model) String() string {
	return fmt.Sprintf("%s{alpha=%.2es beta=%.2es/B}", m.Name, m.Alpha, m.Beta)
}

// Presets. Numbers are order-of-magnitude figures for the corresponding
// hardware class; absolute values are not calibrated to any one machine,
// only the ratios between message sizes and rank counts matter for the
// reproduced experiment shapes.
var (
	// Loopback models in-process channel transport: negligible latency
	// and very high bandwidth. Using it makes modeled time track wall
	// time on the host.
	Loopback = Model{Name: "loopback", Alpha: 2e-7, Beta: 1e-10, GammaCompute: 1}

	// QDR approximates the Mellanox Infiniscale IV QDR fabric of the
	// Compton testbed used in the paper: ~1.3us latency, ~3.2GB/s
	// effective per-link bandwidth.
	QDR = Model{Name: "qdr-infiniband", Alpha: 1.3e-6, Beta: 3.1e-10, GammaCompute: 1, SwitchHops: 0.1}

	// GigE approximates commodity gigabit Ethernet with TCP: ~25us
	// latency, ~110MB/s, and a host-driven (non-offloading) stack, so
	// senders stall for most of the wire time.
	GigE = Model{Name: "gige", Alpha: 2.5e-5, Beta: 9e-9, GammaCompute: 1, SwitchHops: 0.05, InjectionFactor: 0.7}

	// Exascale is a notional future interconnect for the co-design
	// studies the paper motivates: 400ns latency, 25GB/s.
	Exascale = Model{Name: "notional-exascale", Alpha: 4e-7, Beta: 4e-11, GammaCompute: 0.2, SwitchHops: 0.02}
)

// ByName returns the preset with the given name.
func ByName(name string) (Model, error) {
	for _, m := range []Model{Loopback, QDR, GigE, Exascale} {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("netmodel: unknown model %q", name)
}

// Names lists the available preset names.
func Names() []string {
	return []string{Loopback.Name, QDR.Name, GigE.Name, Exascale.Name}
}

// Clock is a per-rank virtual clock. It is owned by exactly one rank
// goroutine; no locking is required.
type Clock struct {
	model Model
	now   float64

	// overlapHidden accumulates the modeled seconds of communication
	// hidden behind compute by split-phase exchanges: for each
	// begin/finish pair, min(compute until finish, time to last arrival),
	// the part of the wire time that did not extend the critical path.
	overlapHidden float64

	// Per-phase accounting: every advance of the clock is attributed to
	// the currently set phase label ("" outside any), so post-hoc
	// analysis can split a rank's modeled time into compute/wait/send per
	// application phase without re-deriving it from spans. Accounting
	// never changes `now`: modeled results are bit-identical with or
	// without phases set.
	phase  string
	splits map[string]*PhaseSplit
	cur    *PhaseSplit // cached splits[phase]
}

// PhaseSplit is the modeled-time split of one accounting phase on one
// rank. Compute covers Advance/AdvanceCompute, Wait covers the blocked
// share of WaitUntil, and Send covers the sender-side injection overhead
// charged by SendStamp. The splits of all phases sum exactly to the
// clock's Now.
type PhaseSplit struct {
	Compute float64
	Wait    float64
	Send    float64
}

// Total returns the phase's total modeled seconds.
func (p PhaseSplit) Total() float64 { return p.Compute + p.Wait + p.Send }

// NewClock returns a clock at time zero running under model m.
func NewClock(m Model) *Clock {
	return &Clock{model: m}
}

// split returns the accumulator of the current phase, creating it on
// first charge.
func (c *Clock) split() *PhaseSplit {
	if c.cur == nil {
		if c.splits == nil {
			c.splits = make(map[string]*PhaseSplit)
		}
		s := c.splits[c.phase]
		if s == nil {
			s = &PhaseSplit{}
			c.splits[c.phase] = s
		}
		c.cur = s
	}
	return c.cur
}

// SetPhase switches the accounting phase and returns the previous one,
// for the caller to set back; nest switches like spans.
func (c *Clock) SetPhase(name string) (prev string) {
	prev = c.phase
	if name != prev {
		c.phase, c.cur = name, nil
	}
	return prev
}

// Phase returns the current accounting phase label ("" outside any).
func (c *Clock) Phase() string { return c.phase }

// PhaseSplits returns a copy of the per-phase modeled-time splits
// accumulated so far. The sum of all Totals equals Now exactly (same
// additions, same order), which is the self-check the critical-path
// engine runs against span-derived attribution.
func (c *Clock) PhaseSplits() map[string]PhaseSplit {
	out := make(map[string]PhaseSplit, len(c.splits))
	for name, s := range c.splits {
		out[name] = *s
	}
	return out
}

// Model returns the machine model the clock runs under.
func (c *Clock) Model() Model { return c.model }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// AdvanceCompute accounts for local computation that took wall seconds of
// host wall time.
func (c *Clock) AdvanceCompute(wall float64) {
	if wall > 0 {
		dt := wall * c.model.GammaCompute
		c.now += dt
		c.split().Compute += dt
	}
}

// Advance adds dt virtual seconds (dt >= 0) of modeled compute.
func (c *Clock) Advance(dt float64) {
	if dt > 0 {
		c.now += dt
		c.split().Compute += dt
	}
}

// SendStamp returns the virtual arrival time of a message of size bytes
// sent now over hops switch hops, and charges the sender the injection
// overhead: one Alpha plus InjectionFactor of the wire time (LogGP's
// per-byte gap); the remainder overlaps with further progress.
func (c *Clock) SendStamp(size, hops int) float64 {
	arrival := c.now + c.model.Cost(size, hops)
	overhead := c.model.Alpha + c.model.InjectionFactor*c.model.Beta*float64(size)
	c.now += overhead
	c.split().Send += overhead
	return arrival
}

// SendStampRoute is SendStamp for a message whose cost and sender-side
// overhead were already priced externally (topology routing — see
// Topology.PairCost): it stamps the arrival at now+cost and charges the
// sender the overhead, with the same phase accounting as SendStamp.
func (c *Clock) SendStampRoute(cost, overhead float64) float64 {
	arrival := c.now + cost
	c.now += overhead
	c.split().Send += overhead
	return arrival
}

// WaitUntil advances the clock to at least t and reports the time spent
// waiting (zero if t is in the past).
func (c *Clock) WaitUntil(t float64) float64 {
	if t <= c.now {
		return 0
	}
	wait := t - c.now
	c.now = t
	c.split().Wait += wait
	return wait
}

// AccountOverlap prices one completed split-phase exchange. begin is the
// virtual time the exchange was posted, computeEnd the time the
// overlapped compute finished (just before the finish-phase waits), and
// lastArrival the modeled arrival of the last inbound message. The
// hidden time — what a serial post-then-wait would have added to the
// critical path but the overlap absorbed — is min(computeEnd,
// lastArrival) - begin, clamped at zero. It is accumulated and reported
// through OverlapHiddenSeconds; the clock itself is not advanced (the
// arrivals were fixed at send time, so max(compute, exchange) emerges
// from the ordinary WaitUntil calls).
func (c *Clock) AccountOverlap(begin, computeEnd, lastArrival float64) {
	end := computeEnd
	if lastArrival < end {
		end = lastArrival
	}
	if h := end - begin; h > 0 {
		c.overlapHidden += h
	}
}

// OverlapHiddenSeconds returns the cumulative modeled communication time
// hidden behind compute by split-phase exchanges on this rank.
func (c *Clock) OverlapHiddenSeconds() float64 { return c.overlapHidden }
