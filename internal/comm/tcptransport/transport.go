package tcptransport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/comm"
)

// Config describes one process of a TCP-backed run: which world rank it
// hosts and how the full mesh is formed. Exactly one of the bootstrap
// modes is used:
//
//   - Explicit peers: Peers lists every rank's listen address (len ==
//     Size); rank i listens on Peers[i] and rank i dials rank j for every
//     j > i.
//   - Rendezvous: every rank checks in with a rendezvous broker and
//     receives the full address table, then rank i dials every j > i.
//     The broker is a cmtbroker at BrokerAddr, or, with RendezvousFile,
//     one rank 0 hosts for the bootstrap and publishes there. Each rank
//     listens on an ephemeral port of the local IP it reached the broker
//     from, so a loopback run stays on loopback.
type Config struct {
	// Rank is the world rank this process hosts.
	Rank int
	// Size is the world communicator size (number of processes).
	Size int
	// Peers, when len == Size, selects explicit-peers bootstrap.
	Peers []string
	// RendezvousFile, when set (and BrokerAddr is not), is where rank 0
	// atomically publishes the address of the broker it hosts and where
	// other ranks poll for it.
	RendezvousFile string
	// BrokerAddr, when set, selects broker bootstrap: every rank checks
	// in with the rendezvous broker (cmd/cmtbroker) at this address and
	// receives the full address table over the network — no shared
	// filesystem needed. Usually set by ParseRendezvous from a
	// "tcp://host:port/job" -rdv argument.
	BrokerAddr string
	// Job names this run at the broker, so one broker can rendezvous any
	// number of concurrent runs. Empty is a valid (single-job) name.
	Job string
	// BootstrapTimeout bounds the whole mesh-formation step (dial
	// retries, check-in, table, hellos). Zero means 30s.
	BootstrapTimeout time.Duration
	// CloseTimeout bounds the graceful-teardown linger waiting for every
	// peer's goodbye. Zero means 30s.
	CloseTimeout time.Duration
}

func (c *Config) bootstrapTimeout() time.Duration {
	if c.BootstrapTimeout > 0 {
		return c.BootstrapTimeout
	}
	return 30 * time.Second
}

func (c *Config) closeTimeout() time.Duration {
	if c.CloseTimeout > 0 {
		return c.CloseTimeout
	}
	return 30 * time.Second
}

// sendq is a per-peer outbound path. A message is encoded into enc, the
// peer's reused buffer, and written to the socket on the sending
// goroutine by one non-blocking write when nothing is ahead of it; only
// what the kernel does not take then is copied onto the unbounded
// backlog, which the peer's writer goroutine drains. Sends never block,
// which is what keeps comm's eager-send guarantee over a real socket: if
// the kernel buffer fills mid-pairwise exchange, bytes queue here instead
// of blocking the sending rank.
type sendq struct {
	mu      sync.Mutex
	cond    *sync.Cond
	enc     []byte   // encode buffer, reused under mu
	bufs    [][]byte // backlog, in send order
	writing bool     // the writer is writing a backlog batch outside mu
	closed  bool     // no further sends; writer exits after draining
	discard bool     // a write hit a dead socket; drop instead of accumulate
}

// peer is one remote process of the mesh.
type peer struct {
	rank     int
	conn     net.Conn
	q        sendq
	byed     atomic.Bool // received their goodbye
	readDone chan struct{}
	wrDone   chan struct{}

	// The inline write's state (see writeNow): the socket's raw handle
	// and the write callback bound to it once, so a write does not
	// allocate, plus the callback's argument and results. Used only
	// under q.mu.
	raw   syscall.RawConn
	rawFn func(fd uintptr) bool
	wb    []byte
	wn    int
	werr  error

	// The inbound stream (rankread.go) and its owner's lock. want says
	// the rank has polled since the reader's turn began; kick starts a
	// turn. The read callbacks (see readNow, awaitRead) are bound once;
	// their argument and results are used only under rmu.
	rmu    sync.Mutex
	in     inStream
	want   atomic.Bool
	kick   *kicker
	rdNow  func(fd uintptr)
	rdWait func(fd uintptr) bool
	rb     []byte
	rn     int
	rerr   error
	rheld  bool
}

// send is the one enqueue-or-write path for every outbound message
// (data, death notice, goodbye): encode appends the message to the
// peer's reused buffer under q.mu. With no backlog and the writer idle,
// every earlier byte is already in the kernel, so writing the message
// now keeps per-peer FIFO order; otherwise, or for whatever that write
// leaves, the bytes are copied onto the backlog behind what is queued.
func (p *peer) send(encode func([]byte) []byte) {
	q := &p.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.discard {
		return
	}
	q.enc = encode(q.enc[:0])
	b := q.enc
	if len(q.bufs) == 0 && !q.writing {
		n, err := p.writeNow(b)
		if err != nil {
			// Peer is gone; stop accumulating and let receive-side
			// dead-rank detection handle the rest.
			q.discard = true
			return
		}
		if b = b[n:]; len(b) == 0 {
			return
		}
	}
	q.bufs = append(q.bufs, append([]byte(nil), b...))
	q.cond.Signal()
}

// close stops accepting sends; the writer drains the backlog, then
// exits. Safe to call more than once.
func (q *sendq) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Transport is a comm.Transport over a TCP full mesh, one process per
// world rank. Create it with New (which forms the mesh, so all processes
// of a run must be started together), hand it to comm.RunDistributed.
type Transport struct {
	cfg     Config
	ln      net.Listener
	peers   []*peer // by world rank; nil at Config.Rank
	rcv     comm.Receiver
	started atomic.Bool
	down    atomic.Bool // Close/Abort begun: reader errors are expected
}

var _ comm.Transport = (*Transport)(nil)

// New forms the mesh: listen, bootstrap (rendezvous or explicit peers),
// and connect to every peer. It blocks until all Size processes are
// interconnected or the bootstrap fails; every failure after the config
// checks wraps ErrBootstrap.
func New(cfg Config) (*Transport, error) {
	if cfg.Size < 1 || cfg.Size > maxWorld {
		return nil, fmt.Errorf("tcptransport: size %d outside [1,%d]", cfg.Size, maxWorld)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("tcptransport: rank %d outside [0,%d)", cfg.Rank, cfg.Size)
	}
	if cfg.Peers != nil && len(cfg.Peers) != cfg.Size {
		return nil, fmt.Errorf("tcptransport: %d peer addresses for %d ranks", len(cfg.Peers), cfg.Size)
	}
	t := &Transport{cfg: cfg, peers: make([]*peer, cfg.Size)}
	if err := t.bootstrap(); err != nil {
		t.teardownConns()
		return nil, fmt.Errorf("%w: %w", ErrBootstrap, err)
	}
	return t, nil
}

// Name implements comm.Transport.
func (t *Transport) Name() string { return "tcp" }

// Size implements comm.Transport.
func (t *Transport) Size() int { return t.cfg.Size }

// LocalRanks implements comm.Transport: one hosted rank per process.
func (t *Transport) LocalRanks() []int { return []int{t.cfg.Rank} }

// Start spawns the per-peer reader and writer goroutines and begins
// delivering inbound frames into rcv: on the rank goroutine while it
// polls, on the reader goroutines while it sleeps (see rankread.go).
func (t *Transport) Start(rcv comm.Receiver) error {
	if t.started.Swap(true) {
		return fmt.Errorf("tcptransport: Start called twice")
	}
	t.rcv = rcv
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		go t.writeLoop(p)
		go t.readLoop(p)
	}
	return nil
}

// Send implements comm.Transport: serialize now (the frame's payload
// slices are only borrowed) and write to the destination process's
// socket, or queue behind its backlog. A departed peer swallows the
// frame, matching the semantics of an eager send into a dead rank's
// mailbox.
func (t *Transport) Send(dstWorld int, f *comm.Frame) error {
	if dstWorld < 0 || dstWorld >= len(t.peers) || t.peers[dstWorld] == nil {
		return fmt.Errorf("tcptransport: no peer hosts world rank %d", dstWorld)
	}
	t.peers[dstWorld].send(func(b []byte) []byte { return appendData(b, f) })
	return nil
}

// NotifyDead implements comm.Transport: announce a hosted rank's death
// to every peer, ordered after all frames already sent to each.
func (t *Transport) NotifyDead(world int) {
	for _, p := range t.peers {
		if p != nil {
			p.send(func(b []byte) []byte { return appendDead(b, world) })
		}
	}
}

// Close implements comm.Transport's graceful teardown: queue a goodbye
// behind all outstanding frames, flush, half-close, then linger until
// every peer's goodbye (or death notice) arrives so no departure is
// mistaken for a crash — on either side.
func (t *Transport) Close() error {
	t.shutdown()
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.send(func(b []byte) []byte { return appendWire(b, typBye, nil) })
		p.q.close()
	}
	deadline := time.NewTimer(t.cfg.closeTimeout())
	defer deadline.Stop()
	var firstErr error
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		select {
		case <-p.wrDone:
		case <-deadline.C:
			firstErr = fmt.Errorf("tcptransport: close timeout flushing to rank %d", p.rank)
			t.teardownConns()
			return firstErr
		}
	}
	// Writers have flushed and half-closed; wait for each peer to finish
	// talking (their bye, then EOF).
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		select {
		case <-p.readDone:
		case <-deadline.C:
			firstErr = fmt.Errorf("tcptransport: close timeout waiting for goodbye from rank %d", p.rank)
			t.teardownConns()
			return firstErr
		}
	}
	t.teardownConns()
	return firstErr
}

// Abort implements comm.Transport: immediate teardown, no goodbye. Peers
// observe the disconnect as the death of this process's rank.
func (t *Transport) Abort() {
	t.shutdown()
	for _, p := range t.peers {
		if p != nil {
			p.q.close()
		}
	}
	t.teardownConns()
}

// shutdown marks teardown begun and starts every reader's last turn,
// which reads its stream to the end.
func (t *Transport) shutdown() {
	t.down.Store(true)
	for _, p := range t.peers {
		if p != nil {
			p.kick.kick()
		}
	}
}

func (t *Transport) teardownConns() {
	if t.ln != nil {
		t.ln.Close()
	}
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
			p.kick.close()
		}
	}
}

// writeLoop drains one peer's backlog onto its socket, blocking in the
// network poller while the kernel buffer is full. While it writes, the
// writing flag sends every new message to the backlog behind the batch.
// On exit (queue closed and drained) it half-closes the connection so
// the peer's reader sees a clean EOF after the goodbye.
func (t *Transport) writeLoop(p *peer) {
	defer close(p.wrDone)
	q := &p.q
	q.mu.Lock()
	for {
		for len(q.bufs) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.bufs) == 0 {
			break // closed and drained
		}
		batch := net.Buffers(q.bufs)
		q.bufs = nil
		q.writing = true
		q.mu.Unlock()
		_, err := batch.WriteTo(p.conn)
		q.mu.Lock()
		q.writing = false
		if err != nil {
			// Peer is gone; stop accumulating and let receive-side
			// dead-rank detection handle the rest.
			q.discard = true
			q.bufs = nil
		}
	}
	q.mu.Unlock()
	if tc, ok := p.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

func (t *Transport) addPeer(rank int, conn net.Conn) error {
	if rank < 0 || rank >= t.cfg.Size || rank == t.cfg.Rank {
		return fmt.Errorf("bogus peer rank %d", rank)
	}
	if t.peers[rank] != nil {
		return fmt.Errorf("duplicate connection for rank %d", rank)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p := &peer{
		rank:     rank,
		conn:     conn,
		readDone: make(chan struct{}),
		wrDone:   make(chan struct{}),
	}
	var err error
	if p.kick, err = newKicker(); err != nil {
		return fmt.Errorf("peer %d: %w", rank, err)
	}
	p.q.cond = sync.NewCond(&p.q.mu)
	if sc, ok := conn.(syscall.Conn); ok {
		// Without a raw handle every message takes the writer's path and
		// every read the reader's, so the error needs no other handling.
		p.raw, _ = sc.SyscallConn()
	}
	t.peers[rank] = p
	return nil
}

// readWireDeadline is readWire with a read deadline, for bootstrap
// exchanges where a stalled peer must not hang the mesh forever.
func readWireDeadline(conn net.Conn, d time.Time) (byte, []byte, error) {
	conn.SetReadDeadline(d)
	defer conn.SetReadDeadline(time.Time{})
	var buf []byte
	return readWire(conn, &buf)
}

// writeWireDeadline writes one pre-encoded wire message under a deadline.
func writeWireDeadline(conn net.Conn, buf []byte, d time.Time) error {
	conn.SetWriteDeadline(d)
	defer conn.SetWriteDeadline(time.Time{})
	_, err := conn.Write(buf)
	return err
}
