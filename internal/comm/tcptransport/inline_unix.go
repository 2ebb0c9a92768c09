//go:build unix

package tcptransport

import (
	"io"
	"os"
	"sync/atomic"
	"syscall"
)

// rankReads reports that a rank goroutine can read its peers' sockets
// itself (Poll): a raw non-blocking read(2) returns at once when nothing
// has arrived.
const rankReads = true

// writeNow makes one non-blocking write(2) of b on the peer's socket from
// the calling goroutine and reports how many bytes the kernel took:
// fewer than len(b), possibly none, when its send buffer is full. It
// never waits for the socket to become writable; the caller queues the
// rest for the writer goroutine. Called with q.mu held and the writer
// idle (see send), so nothing else writes the socket meanwhile.
func (p *peer) writeNow(b []byte) (int, error) {
	if p.raw == nil {
		return 0, nil
	}
	if p.rawFn == nil {
		p.rawFn = p.writeFD
	}
	p.wb, p.wn, p.werr = b, 0, nil
	err := p.raw.Write(p.rawFn)
	p.wb = nil
	if err != nil {
		return 0, err
	}
	return p.wn, p.werr
}

// writeFD is the RawConn.Write callback. It reports done whatever the
// write did, so RawConn.Write never parks the goroutine in the poller:
// EAGAIN is a zero-byte write, not an error.
func (p *peer) writeFD(fd uintptr) bool {
	for {
		n, err := syscall.Write(int(fd), p.wb)
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN {
			n, err = 0, nil
		}
		p.wn, p.werr = max(n, 0), err
		return true
	}
}

// readNow makes one non-blocking read(2) into b (non-empty) on the peer's
// socket from the calling goroutine, taking only what the kernel already
// holds, possibly nothing; the end of the stream is io.EOF. It goes
// through RawConn.Control, which holds the socket open but not its read
// lock, so it never waits behind a reader goroutine parked in the
// poller (awaitRead). Called with rmu held.
func (p *peer) readNow(b []byte) (int, error) {
	if p.raw == nil {
		return 0, nil
	}
	if p.rdNow == nil {
		p.rdNow = p.readFD
	}
	p.rb = b
	err := p.raw.Control(p.rdNow)
	p.rb = nil
	if err != nil {
		return 0, err
	}
	return p.rn, p.rerr
}

// awaitRead waits until the peer's socket has bytes (or has ended) and
// reads them into the stream, returning with rmu held (held true). It
// waits in the network poller without rmu, so a rank that wakes
// meanwhile can read its stream at once, and it gives up, with rmu free
// (held false), as soon as it finds the rank awake: want set, or rmu
// taken by a Poll. Called by the reader goroutine without rmu.
func (p *peer) awaitRead() (n int, held bool, err error) {
	if p.raw == nil {
		p.rmu.Lock()
		n, err := p.conn.Read(p.in.space())
		return n, true, err
	}
	if p.rdWait == nil {
		p.rdWait = p.waitFD
	}
	p.rheld = false
	if err := p.raw.Read(p.rdWait); err != nil {
		// The socket is closed; the callback did not keep rmu.
		p.rmu.Lock()
		return 0, true, err
	}
	if !p.rheld {
		// waitFD gave up without rmu: p.rn and p.rerr are the polling
		// rank's now.
		return 0, false, nil
	}
	return p.rn, true, p.rerr
}

// waitFD is awaitRead's RawConn.Read callback. It reads under rmu and
// keeps rmu when it got bytes or an error; on EAGAIN it releases rmu and
// sends RawConn.Read back to the poller. It reports done without reading
// when the rank is awake.
func (p *peer) waitFD(fd uintptr) bool {
	if p.want.Load() || !p.rmu.TryLock() {
		return true
	}
	p.rb = p.in.space()
	p.readFD(fd)
	p.rb = nil
	if p.rn == 0 && p.rerr == nil {
		p.rmu.Unlock()
		return false
	}
	p.rheld = true
	return true
}

// readFD makes one non-blocking read(2) of the socket into p.rb, leaving
// the bytes read in p.rn and the error in p.rerr: none for EAGAIN (zero
// bytes), io.EOF for the end of the stream.
func (p *peer) readFD(fd uintptr) {
	for {
		n, err := syscall.Read(int(fd), p.rb)
		if err == syscall.EINTR {
			continue
		}
		switch {
		case err == syscall.EAGAIN:
			n, err = 0, nil
		case n == 0 && err == nil:
			err = io.EOF
		}
		p.rn, p.rerr = max(n, 0), err
		return
	}
}

// kicker starts a peer's reader turns: kick writes a byte to a pipe the
// reader waits on in the network poller. A one-slot channel would be
// simpler, but a goroutine blocked on a channel takes a wait record from
// the runtime's per-P cache, and the reader blocks on one P (its turn
// ends while the rank runs on the other) and resumes on the rank's, so
// the first P's cache runs dry and refills by allocation: with a channel
// TestTCPExchangeAllocs measured about 0.02 allocations per message
// beside a CPU-bound process (ceiling 0.012; 2-vCPU x86-64 guest). A
// goroutine waiting in the poller takes none.
type kicker struct {
	r, w    *os.File
	rr, wr  syscall.RawConn
	pending atomic.Bool // a byte is in the pipe, or a turn is starting
	rdFn    func(fd uintptr) bool
	wrFn    func(fd uintptr)
	buf     [8]byte // drain's, on the reader goroutine
}

// kickByte is what kick writes; never written itself.
var kickByte = [1]byte{1}

func newKicker() (*kicker, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	k := &kicker{r: r, w: w}
	if k.rr, err = r.SyscallConn(); err == nil {
		k.wr, err = w.SyscallConn()
	}
	if err != nil {
		k.close()
		return nil, err
	}
	k.rdFn = k.drain
	k.wrFn = func(fd uintptr) { syscall.Write(int(fd), kickByte[:]) }
	return k, nil
}

// kick starts a turn, or leaves one pending. It never blocks: the pipe
// holds at most one byte.
func (k *kicker) kick() {
	if k.pending.CompareAndSwap(false, true) {
		k.wr.Control(k.wrFn)
	}
}

// await blocks the reader until a kick, or until the pipe is closed.
func (k *kicker) await() {
	k.rr.Read(k.rdFn)
	// Cleared after the byte is read: a kick from here on writes
	// another, and one between the read and this store is covered by the
	// turn about to start.
	k.pending.Store(false)
}

// drain is await's RawConn.Read callback: it empties the pipe and waits
// in the poller while there is nothing to read.
func (k *kicker) drain(fd uintptr) bool {
	for {
		n, err := syscall.Read(int(fd), k.buf[:])
		if err != syscall.EINTR {
			return n > 0 || err != syscall.EAGAIN
		}
	}
}

func (k *kicker) close() {
	k.r.Close()
	k.w.Close()
}
