package tcptransport

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/comm"
)

// Inbound path. Each peer's inbound byte stream has one owner at a time,
// whoever holds the peer's rmu: the rank goroutine, reading while it
// polls (Poll), or the peer's reader goroutine, reading while the rank
// sleeps (readLoop). Both append what they read to the same buffer and
// dispatch it through the same routine (take), so the checks, the
// delivery order and the handling of death notices, goodbyes and EOF do
// not depend on who read the bytes.
//
// The reader reads only between a kick (Park, as the rank goes to sleep,
// or shutdown) and the next sign that the rank is awake, and it waits in
// the network poller without rmu. So while the rank polls, it reads its
// own socket and nothing is woken to bring it a frame; a frame that
// arrives while it sleeps costs the reader's wake-up and the rank's, as
// before.

// inStream is one peer's inbound byte stream: the bytes received and not
// yet dispatched, and the Frame every data message is decoded into. All
// of it is guarded by the peer's rmu.
type inStream struct {
	buf  []byte // buf[off:] has arrived and is not yet dispatched
	off  int
	f    comm.Frame
	done bool // EOF, read error or protocol error: nothing more to read
}

// streamChunk is the least step the stream's buffer grows by.
const streamChunk = 64 << 10

// space returns the room the next read lands in. Dispatched bytes are
// dropped first; if a message still does not fit, the buffer grows past
// the bytes that have arrived by one chunk or a quarter of them,
// whichever is more, and never past the end of the message under way.
// That is readBody's growth (slices.Grow steps a large slice by about a
// quarter): memory follows what a peer actually sends, so a lying
// length cannot allocate MaxBodyBytes, and a large message is copied a
// bounded number of times over rather than once per chunk.
func (s *inStream) space() []byte {
	if s.off == len(s.buf) {
		s.buf, s.off = s.buf[:0], 0
	}
	if len(s.buf) == cap(s.buf) && s.off > 0 {
		n := copy(s.buf, s.buf[s.off:])
		s.buf, s.off = s.buf[:n], 0
	}
	if len(s.buf) == cap(s.buf) {
		grow := max(streamChunk, len(s.buf)/4)
		if len(s.buf) >= headerLen {
			// The header was checked when it completed (next), so the
			// declared length is at most MaxBodyBytes.
			end := headerLen + int(binary.LittleEndian.Uint32(s.buf[6:]))
			grow = min(grow, end-len(s.buf))
		}
		b := make([]byte, len(s.buf), len(s.buf)+grow)
		copy(b, s.buf)
		s.buf = b
	}
	return s.buf[len(s.buf):cap(s.buf)]
}

// next returns the next complete wire message in the buffer, checked as
// readWire checks it: magic, version and length as soon as the header is
// complete, the body CRC once the body is. ok is false when more bytes
// are needed. The body aliases the buffer until the next read.
func (s *inStream) next() (typ byte, body []byte, ok bool, err error) {
	b := s.buf[s.off:]
	if len(b) < headerLen {
		return 0, nil, false, nil
	}
	if binary.LittleEndian.Uint32(b) != wireMagic {
		return 0, nil, false, ErrBadMagic
	}
	if b[4] != wireVersion {
		return 0, nil, false, ErrBadVersion
	}
	n := int(binary.LittleEndian.Uint32(b[6:]))
	if n > MaxBodyBytes {
		return 0, nil, false, ErrBadLength
	}
	if len(b) < headerLen+n {
		return 0, nil, false, nil
	}
	body = b[headerLen : headerLen+n]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[10:]) {
		return 0, nil, false, ErrBadCRC
	}
	s.off += headerLen + n
	return b[5], body, true, nil
}

// take appends n received bytes to p's stream and dispatches every
// message they complete; err (a read error, or io.EOF for the peer's
// close) then ends the stream. Called with p.rmu held.
func (t *Transport) take(p *peer, n int, err error) {
	p.in.buf = p.in.buf[:len(p.in.buf)+n]
	t.dispatch(p)
	if err != nil && !p.in.done {
		t.end(p)
	}
}

// dispatch routes every complete message in p's stream: data frames to
// the receiver, death notices to the fault plane, and a goodbye marks the
// departure graceful. A malformed message ends the stream.
func (t *Transport) dispatch(p *peer) {
	s := &p.in
	for !s.done {
		typ, body, ok, err := s.next()
		if err != nil {
			t.end(p)
			break
		}
		if !ok {
			break
		}
		switch typ {
		case typData:
			if decodeData(body, &s.f) != nil {
				t.end(p)
			} else {
				t.rcv.DeliverFrame(&s.f)
			}
		case typDead:
			if w, err := decodeDead(body); err != nil {
				t.end(p)
			} else {
				t.rcv.PeerDead(w)
			}
		case typBye:
			// Keep reading: the clean EOF follows the peer's half-close.
			p.byed.Store(true)
		default:
			// Unknown type from a same-version peer: protocol error.
			t.end(p)
		}
	}
}

// end closes p's stream. Unless the peer said goodbye or this process is
// shutting down, a broken stream is a process failure, and the rank it
// hosts is reported dead.
func (t *Transport) end(p *peer) {
	p.in.done = true
	if !p.byed.Load() && !t.down.Load() {
		t.rcv.PeerDead(p.rank)
	}
}

// Poll implements comm.Transport: for every peer whose stream is free it
// reads, without waiting, what the kernel holds and dispatches it on the
// calling rank goroutine. Either way it sets the peer's want flag, which
// ends the reader goroutine's turn: the rank is awake and reads for
// itself.
func (t *Transport) Poll() {
	if !rankReads {
		return
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		if !p.want.Load() {
			p.want.Store(true)
		}
		if !p.rmu.TryLock() {
			continue
		}
		for !p.in.done {
			room := p.in.space()
			n, err := p.readNow(room)
			t.take(p, n, err)
			if n < len(room) {
				break
			}
		}
		p.rmu.Unlock()
	}
}

// Park implements comm.Transport: it starts a reader turn on every peer
// (or leaves one pending), so frames keep arriving while the rank
// sleeps. It runs under the rank's mailbox lock; a kick never blocks.
func (t *Transport) Park() {
	for _, p := range t.peers {
		if p != nil {
			p.kick.kick()
		}
	}
}

// readLoop is one peer's reader goroutine. A turn starts on a kick from
// Park or shutdown and reads the stream (awaitRead) until the rank is
// seen awake: want set by a Poll since the turn began, or the stream
// taken by a Poll under way. Either means the rank will read for itself
// or, if it sleeps again, kick again first, so a parked rank never lacks
// a reader, whatever the stream holds when the turn ends: a partial
// message, or frames pended for a communicator not registered yet. Once
// shutdown has begun the turn reads to the end of the stream. Where the
// rank cannot read (rankReads false) nothing kicks or sets want, and the
// first turn is the whole stream.
func (t *Transport) readLoop(p *peer) {
	defer close(p.readDone)
	for {
		p.kick.await()
		p.want.Store(false)
		for {
			n, held, err := p.awaitRead()
			if !held {
				if !t.down.Load() {
					break
				}
				p.want.Store(false)
				continue
			}
			t.take(p, n, err)
			done := p.in.done
			p.rmu.Unlock()
			if done {
				return
			}
		}
	}
}
