// Package tcptransport is a comm.Transport over TCP sockets: one OS
// process per world rank, a full mesh of connections formed by a
// rendezvous/bootstrap step, and length-prefixed wire frames that carry
// the (tag, src, CRC, payload) tuple of the mailbox fabric plus the
// virtual-clock timestamps the network model stamps at the sender — so a
// run spanning processes still prices the same modeled cluster,
// bit-identically to the in-process backend.
//
// The wire has two integrity layers on purpose. Every wire message ends
// in a whole-body CRC32 checked here, guarding against transport-level
// corruption and desync — a failure is a hard protocol error. Separately,
// a data frame may carry the application-level payload CRC of comm's
// framing (Frame.CRC/Framed), which is verified by the receiving mailbox,
// not here: fault-plane-injected corruption must cross the wire intact so
// the receiver's reject-and-retransmit path is exercised end to end.
//
// A send is one non-blocking write(2) on the sending rank's goroutine;
// only what the kernel refuses queues for a per-peer writer goroutine.
// Receiving is the mirror image (rankread.go): a blocked rank reads its
// peers' sockets itself while it polls (Poll), and a per-peer reader
// goroutine reads only while the rank sleeps (after Park), so in a
// steady exchange a frame reaches its rank with no goroutine wake-up.
package tcptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/comm"
)

// Wire message types.
const (
	typData  = 1 // a comm.Frame between ranks
	typBye   = 2 // graceful teardown: departure is not a death
	typDead  = 3 // a hosted rank died (Rank.Kill); body is the world rank
	typHello = 4 // bootstrap: a mesh dialer identifies its rank
	typTable = 5 // bootstrap: the broker sends a job's address table

	// typJobHello is a rendezvous-broker check-in: job name, world rank,
	// world size, advertised mesh address (see broker.go). The broker
	// answers with a typTable once the job's roster is complete.
	typJobHello = 6
)

const (
	wireMagic   = 0x434d5457 // "CMTW"
	wireVersion = 1

	// headerLen is the fixed outer header: magic u32, version u8, type
	// u8, body length u32, body CRC32 u32.
	headerLen = 14

	// dataFixedLen is the fixed prefix of a data body: ctx u64, src u32,
	// dst u32, tag i64, sendVT f64, arrival f64, payload CRC u32, flags
	// u8, nData u32, nInts u32.
	dataFixedLen = 53

	// MaxBodyBytes bounds a wire message body. Reads validate the
	// declared length against this cap (and data bodies against their
	// element counts) before allocating, so a corrupt or hostile length
	// field can neither over-allocate nor desync the stream silently.
	MaxBodyBytes = 1 << 27

	flagFramed = 1 << 0
)

// castagnoli matches comm's payload CRC polynomial; reusing it keeps the
// codec dependency-free and the table shared process-wide.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Protocol errors. All decode failures are errors, never panics: the
// reader faces a real network and the fuzz target holds it to that.
var (
	ErrBadMagic   = errors.New("tcptransport: bad frame magic")
	ErrBadVersion = errors.New("tcptransport: unsupported frame version")
	ErrBadLength  = errors.New("tcptransport: frame length out of range")
	ErrBadCRC     = errors.New("tcptransport: frame body CRC mismatch")
	ErrTruncated  = errors.New("tcptransport: truncated frame")
)

// appendWire appends one outer-framed wire message to dst.
func appendWire(dst []byte, typ byte, body []byte) []byte {
	var h [headerLen]byte
	binary.LittleEndian.PutUint32(h[0:], wireMagic)
	h[4] = wireVersion
	h[5] = typ
	binary.LittleEndian.PutUint32(h[6:], uint32(len(body)))
	binary.LittleEndian.PutUint32(h[10:], crc32.Checksum(body, castagnoli))
	dst = append(dst, h[:]...)
	return append(dst, body...)
}

// readWire reads and validates one wire message into *buf, reusing its
// capacity for the header and then the body: the returned body aliases
// *buf and is valid until the next call with the same buffer. At a
// message boundary io.EOF and an expired read deadline (an error
// matching os.ErrDeadlineExceeded) come back as they are; any other
// failed or partial read is ErrTruncated.
func readWire(r io.Reader, buf *[]byte) (typ byte, body []byte, err error) {
	*buf = slices.Grow((*buf)[:0], headerLen)
	h := (*buf)[:headerLen]
	if _, err := io.ReadFull(r, h[:1]); err != nil {
		if err == io.EOF || errors.Is(err, os.ErrDeadlineExceeded) {
			return 0, nil, err
		}
		return 0, nil, ErrTruncated
	}
	if _, err := io.ReadFull(r, h[1:]); err != nil {
		return 0, nil, ErrTruncated
	}
	if binary.LittleEndian.Uint32(h[0:]) != wireMagic {
		return 0, nil, ErrBadMagic
	}
	if h[4] != wireVersion {
		return 0, nil, ErrBadVersion
	}
	typ = h[5]
	n := int(binary.LittleEndian.Uint32(h[6:]))
	if n > MaxBodyBytes {
		return 0, nil, ErrBadLength
	}
	sum := binary.LittleEndian.Uint32(h[10:]) // the body overwrites h
	body, err = readBody(r, n, buf)
	if err != nil {
		return 0, nil, err
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, nil, ErrBadCRC
	}
	return typ, body, nil
}

// readBody reads an n-byte body into *buf. A buffer already large enough
// is filled in one read; a short one grows by at most one chunk past the
// bytes that have arrived, so memory grows with what a peer actually
// sends rather than with a declared length — a lying header cannot
// allocate MaxBodyBytes from a short stream.
func readBody(r io.Reader, n int, buf *[]byte) ([]byte, error) {
	const chunk = 64 << 10
	body := (*buf)[:0]
	for len(body) < n {
		off := len(body)
		end := n
		if end > cap(body) {
			end = min(n, max(cap(body), off+chunk))
			body = slices.Grow(body, end-off)
			*buf = body
		}
		body = body[:end]
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return nil, ErrTruncated
		}
	}
	*buf = body
	return body, nil
}

// appendData appends a type-data wire message carrying f to dst, growing
// dst once to the message's full size.
func appendData(dst []byte, f *comm.Frame) []byte {
	bodyLen := dataFixedLen + 8*(len(f.Data)+len(f.Ints))
	start := len(dst)
	dst = slices.Grow(dst, headerLen+bodyLen)[:start+headerLen+bodyLen]
	h := dst[start : start+headerLen]
	binary.LittleEndian.PutUint32(h[0:], wireMagic)
	h[4] = wireVersion
	h[5] = typData
	binary.LittleEndian.PutUint32(h[6:], uint32(bodyLen))

	b := dst[start+headerLen:]
	binary.LittleEndian.PutUint64(b[0:], f.Ctx)
	binary.LittleEndian.PutUint32(b[8:], uint32(f.Src))
	binary.LittleEndian.PutUint32(b[12:], uint32(f.Dst))
	binary.LittleEndian.PutUint64(b[16:], uint64(f.Tag))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(f.SendVT))
	binary.LittleEndian.PutUint64(b[32:], math.Float64bits(f.Arrival))
	binary.LittleEndian.PutUint32(b[40:], f.CRC)
	b[44] = 0
	if f.Framed {
		b[44] = flagFramed
	}
	binary.LittleEndian.PutUint32(b[45:], uint32(len(f.Data)))
	binary.LittleEndian.PutUint32(b[49:], uint32(len(f.Ints)))
	off := dataFixedLen
	for _, v := range f.Data {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	for _, v := range f.Ints {
		binary.LittleEndian.PutUint64(b[off:], uint64(v))
		off += 8
	}
	binary.LittleEndian.PutUint32(h[10:], crc32.Checksum(b, castagnoli))
	return dst
}

// decodeData decodes a type-data body into f, overwriting every field and
// reusing the capacity of f.Data and f.Ints. The element counts are
// cross-validated against the body length before the payload slices can
// grow, so a corrupted count cannot over-allocate.
func decodeData(body []byte, f *comm.Frame) error {
	if len(body) < dataFixedLen {
		return ErrTruncated
	}
	nData := binary.LittleEndian.Uint32(body[45:])
	nInts := binary.LittleEndian.Uint32(body[49:])
	if nData > MaxBodyBytes/8 || nInts > MaxBodyBytes/8 {
		return ErrBadLength
	}
	want := dataFixedLen + 8*(int(nData)+int(nInts))
	if len(body) != want {
		return fmt.Errorf("%w: data body %d bytes, counts need %d", ErrBadLength, len(body), want)
	}
	f.Ctx = binary.LittleEndian.Uint64(body[0:])
	f.Src = int(int32(binary.LittleEndian.Uint32(body[8:])))
	f.Dst = int(int32(binary.LittleEndian.Uint32(body[12:])))
	f.Tag = int(int64(binary.LittleEndian.Uint64(body[16:])))
	f.SendVT = math.Float64frombits(binary.LittleEndian.Uint64(body[24:]))
	f.Arrival = math.Float64frombits(binary.LittleEndian.Uint64(body[32:]))
	f.CRC = binary.LittleEndian.Uint32(body[40:])
	f.Framed = body[44]&flagFramed != 0
	off := dataFixedLen
	f.Data = slices.Grow(f.Data[:0], int(nData))[:nData]
	for i := range f.Data {
		f.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
		off += 8
	}
	f.Ints = slices.Grow(f.Ints[:0], int(nInts))[:nInts]
	for i := range f.Ints {
		f.Ints[i] = int64(binary.LittleEndian.Uint64(body[off:]))
		off += 8
	}
	return nil
}

// appendDead appends a death-notice wire message for world rank w.
func appendDead(dst []byte, w int) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(w))
	return appendWire(dst, typDead, b[:])
}

// decodeDead decodes a death-notice body.
func decodeDead(body []byte) (int, error) {
	if len(body) != 4 {
		return 0, ErrBadLength
	}
	return int(int32(binary.LittleEndian.Uint32(body))), nil
}

// appendHello appends the mesh hello: the dialer's world rank.
func appendHello(dst []byte, rank int) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(rank))
	return appendWire(dst, typHello, b[:])
}

// decodeHello decodes a hello body.
func decodeHello(body []byte) (int, error) {
	if len(body) != 4 {
		return 0, ErrBadLength
	}
	return int(int32(binary.LittleEndian.Uint32(body))), nil
}

// appendTable appends the bootstrap address table: one mesh listen
// address per world rank, in rank order.
func appendTable(dst []byte, addrs []string) []byte {
	n := 4
	for _, a := range addrs {
		if len(a) > math.MaxUint16 {
			a = a[:math.MaxUint16]
		}
		n += 2 + len(a)
	}
	b := make([]byte, 0, n)
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(len(addrs)))
	b = append(b, u[:]...)
	for _, a := range addrs {
		if len(a) > math.MaxUint16 {
			a = a[:math.MaxUint16]
		}
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(a)))
		b = append(b, l[:]...)
		b = append(b, a...)
	}
	return appendWire(dst, typTable, b)
}

// decodeTable decodes an address-table body. The entry count is bounded
// by the body length (2 bytes minimum per entry), so a corrupted count
// cannot over-allocate.
func decodeTable(body []byte) ([]string, error) {
	if len(body) < 4 {
		return nil, ErrTruncated
	}
	count := binary.LittleEndian.Uint32(body[0:])
	if int64(count) > int64(len(body)-4)/2 {
		return nil, ErrBadLength
	}
	addrs := make([]string, 0, count)
	off := 4
	for i := uint32(0); i < count; i++ {
		if off+2 > len(body) {
			return nil, ErrTruncated
		}
		n := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+n > len(body) {
			return nil, ErrTruncated
		}
		addrs = append(addrs, string(body[off:off+n]))
		off += n
	}
	if off != len(body) {
		return nil, ErrBadLength
	}
	return addrs, nil
}
