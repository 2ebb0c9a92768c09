//go:build !unix

package tcptransport

// rankReads is false off unix: a rank never reads a socket (Poll and
// Park do nothing), and each peer's reader goroutine reads its stream
// from start to end.
const rankReads = false

// writeNow takes no bytes off unix: every message queues for the writer.
func (p *peer) writeNow([]byte) (int, error) { return 0, nil }

// readNow takes no bytes off unix: the rank never reads a socket.
func (p *peer) readNow([]byte) (int, error) { return 0, nil }

// awaitRead is the reader goroutine's blocking read into the stream,
// returning with rmu held.
func (p *peer) awaitRead() (n int, held bool, err error) {
	p.rmu.Lock()
	n, err = p.conn.Read(p.in.space())
	return n, true, err
}

// kicker does nothing off unix, where the reader reads the whole stream:
// await returns at once.
type kicker struct{}

func newKicker() (*kicker, error) { return &kicker{}, nil }
func (*kicker) kick()             {}
func (*kicker) await()            {}
func (*kicker) close()            {}
