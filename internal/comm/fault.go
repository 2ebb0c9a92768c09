package comm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Fault plane. A FaultPlane installed via Options.Faults sees every wire
// message (point-to-point sends and the rounds inside collectives) and may
// perturb its delivery: lose the first copy (drop-with-retransmit), flip a
// payload bit on the first copy (detected by the per-message CRC and
// retried), or delay it. All perturbations preserve delivery — the runtime
// models a reliable transport with detect-and-retransmit, so faults cost
// modeled time instead of deadlocking the run — and all decisions are the
// injector's, so a seeded injector makes every chaos run deterministic.

// FaultAction is the injector's verdict for one wire message. The zero
// value means "deliver normally".
type FaultAction struct {
	// Drop loses the first copy on the wire: the receiver sees only the
	// retransmission, RetransmitVT modeled seconds after the original
	// arrival would have been.
	Drop bool
	// Corrupt delivers a first copy with payload bit FlipBit inverted
	// (its CRC left describing the original payload, so the receiver
	// detects the damage) followed by a clean retransmission RetransmitVT
	// later. CRC framing is forced on whenever a fault plane is
	// installed, so corruption can never be absorbed silently.
	Corrupt bool
	// FlipBit selects which payload bit Corrupt inverts, modulo the
	// payload size. Ignored unless Corrupt is set.
	FlipBit int
	// DelayVT postpones the delivery by the given modeled seconds
	// (congestion / slow-link transient). Composes with Drop/Corrupt.
	DelayVT float64
	// RetransmitVT is the modeled timeout-and-resend penalty charged by
	// Drop and Corrupt; 0 selects DefaultRetransmitVT.
	RetransmitVT float64
}

// DefaultRetransmitVT is the modeled seconds a lost or corrupted copy
// costs before its retransmission arrives, when the FaultAction does not
// say otherwise. It is deliberately large against the alpha of the
// bundled network models so injected faults are visible in modeled time.
const DefaultRetransmitVT = 100e-6

// FaultPlane decides the fate of wire messages. Message is called from
// every sending rank goroutine concurrently and must be safe for
// concurrent use; src and dst are world (original communicator) ranks, so
// decisions are stable across communicator shrinks. CRCDetected is a
// notification that a receiver's CRC check caught an injected corruption
// (again with world ranks), letting the injector account detections
// against injections; the receiving rank makes it with its mailbox
// locked, so it must return promptly and not call into this package.
type FaultPlane interface {
	Message(src, dst, tag int, bytes int64, sendVT float64) FaultAction
	CRCDetected(src, dst, tag int)
}

// DeadRankError reports that an operation waited on a rank that has been
// killed. Rank is the peer's id in the communicator the operation used;
// World is the same peer in the original (world) numbering.
type DeadRankError struct {
	Rank  int
	World int
}

// Error implements error.
func (e DeadRankError) Error() string {
	if e.Rank != e.World {
		return fmt.Sprintf("comm: rank %d (world %d) is dead", e.Rank, e.World)
	}
	return fmt.Sprintf("comm: rank %d is dead", e.Rank)
}

// killPanic unwinds a rank killed by Rank.Kill. Run recovers it and
// records the death without aborting the surviving ranks.
type killPanic struct{ world int }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// payloadCRC checksums a message payload (floats then ints, little
// endian), the integrity guard corrupted frames are detected against.
func payloadCRC(data []float64, ints []int64) uint32 {
	var buf [8]byte
	crc := uint32(0)
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		crc = crc32.Update(crc, crcTable, buf[:])
	}
	for _, v := range ints {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		crc = crc32.Update(crc, crcTable, buf[:])
	}
	return crc
}

// flipPayloadBit inverts one bit of the payload, addressing the floats
// first and then the ints, with bit reduced modulo the payload size.
func flipPayloadBit(data []float64, ints []int64, bit int) {
	total := 64 * (len(data) + len(ints))
	if total == 0 {
		return
	}
	bit = ((bit % total) + total) % total
	idx, pos := bit/64, uint(bit%64)
	if idx < len(data) {
		data[idx] = math.Float64frombits(math.Float64bits(data[idx]) ^ (1 << pos))
	} else {
		ints[idx-len(data)] ^= 1 << pos
	}
}
