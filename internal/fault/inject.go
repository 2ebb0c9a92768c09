package fault

import (
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Injector implements comm.FaultPlane from a Spec. Decisions are a pure
// function of (seed, sender, receiver, per-pair sequence number): each
// (src, dst) pair keeps its own sequence counter, and since a pair's
// messages are all injected by the sender's goroutine in program order,
// the decision stream is independent of goroutine interleaving — the
// whole point of a deterministic chaos harness. Sequence counters are
// keyed by world ranks, so decisions survive communicator shrinks.
type Injector struct {
	spec   *Spec
	ranks  int
	seq    []atomic.Uint64 // per (src*ranks+dst) message counter
	counts []rankCounts    // per world rank

	mDrops, mCorrupts, mDelays, mDetected *obs.Counter
}

// rankCounts is one world rank's share of the injected faults: drops,
// corruptions and delays of the messages it sent, and CRC detections of
// the corrupted copies it received.
type rankCounts struct {
	drops, corrupts, delays, detected atomic.Int64
}

// Counts tallies injected faults and their detections.
type Counts struct {
	Drops, Corrupts, Delays, Detected int64
}

// Add returns the element-wise sum of c and d.
func (c Counts) Add(d Counts) Counts {
	return Counts{c.Drops + d.Drops, c.Corrupts + d.Corrupts, c.Delays + d.Delays, c.Detected + d.Detected}
}

// NewInjector builds the fault plane for a run of the given world size.
// metrics may be nil; when set, fault_drops / fault_corruptions /
// fault_delays / fault_crc_detected counters are maintained.
func NewInjector(spec *Spec, ranks int, metrics *obs.Registry) *Injector {
	return &Injector{
		spec:      spec,
		ranks:     ranks,
		seq:       make([]atomic.Uint64, ranks*ranks),
		counts:    make([]rankCounts, ranks),
		mDrops:    metrics.Counter("fault_drops"),
		mCorrupts: metrics.Counter("fault_corruptions"),
		mDelays:   metrics.Counter("fault_delays"),
		mDetected: metrics.Counter("fault_crc_detected"),
	}
}

// splitmix64 is the avalanche mixer driving every decision: full 64-bit
// diffusion, so consecutive sequence numbers give independent-looking
// uniform draws while remaining pure functions of their inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// Message implements comm.FaultPlane.
func (in *Injector) Message(src, dst, tag int, bytes int64, sendVT float64) comm.FaultAction {
	m := &in.spec.Messages
	if m.Drop == 0 && m.Corrupt == 0 && m.Delay == 0 {
		return comm.FaultAction{}
	}
	if sendVT < m.FromVT || (m.ToVT > 0 && sendVT >= m.ToVT) {
		return comm.FaultAction{}
	}
	pair := src*in.ranks + dst
	s := in.seq[pair].Add(1) - 1
	n := &in.counts[src]
	h := splitmix64(uint64(in.spec.Seed) ^ splitmix64(uint64(pair)<<32|s))
	u := unit(h)
	rto := m.RetransmitSeconds
	switch {
	// A zero-byte payload has no bit to flip; a corruption draw on one
	// degrades to a drop (same retransmission cost) so the corruption
	// counter only ever counts copies that really were damaged.
	case u < m.Drop || (u < m.Drop+m.Corrupt && bytes == 0):
		n.drops.Add(1)
		in.mDrops.Add(1)
		return comm.FaultAction{Drop: true, RetransmitVT: rto}
	case u < m.Drop+m.Corrupt:
		n.corrupts.Add(1)
		in.mCorrupts.Add(1)
		return comm.FaultAction{
			Corrupt:      true,
			FlipBit:      int(splitmix64(h) >> 1), // reduced mod payload size at the flip site
			RetransmitVT: rto,
		}
	case u < m.Drop+m.Corrupt+m.Delay:
		n.delays.Add(1)
		in.mDelays.Add(1)
		return comm.FaultAction{DelayVT: m.DelaySeconds}
	}
	return comm.FaultAction{}
}

// CRCDetected implements comm.FaultPlane: a receiver's CRC check caught
// an injected corruption.
func (in *Injector) CRCDetected(src, dst, tag int) {
	in.counts[dst].detected.Add(1)
	in.mDetected.Add(1)
}

// Rank returns world rank w's share of the counts: the faults injected
// into the messages it sent and the corruptions it detected on receipt.
// Over a multi-process transport each process's Injector sees only the
// traffic of the ranks it hosts, so a run-wide tally sums Rank over the
// ranks in a collective.
func (in *Injector) Rank(w int) Counts {
	n := &in.counts[w]
	return Counts{n.drops.Load(), n.corrupts.Load(), n.delays.Load(), n.detected.Load()}
}

// Total sums Rank over every world rank. Every corrupted copy that is
// actually received is detected (the runtime verifies CRC frames on all
// receive paths), so after a run without crashes Detected equals
// Corrupts; with a crash, copies addressed to the dead rank may go
// unreceived, so Detected <= Corrupts. A corruption that is received but
// NOT detected would be silent — the chaos suite asserts that never
// happens by checking final-state bit-identity.
func (in *Injector) Total() Counts {
	var t Counts
	for w := range in.counts {
		t = t.Add(in.Rank(w))
	}
	return t
}
