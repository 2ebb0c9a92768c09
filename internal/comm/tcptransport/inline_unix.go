//go:build unix

package tcptransport

import "syscall"

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
