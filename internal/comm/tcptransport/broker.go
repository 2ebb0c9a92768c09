package tcptransport

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"time"
)

// Rendezvous broker: the one address exchange of a rendezvous bootstrap.
// Run standalone as `cmtbroker`, it lets a run's ranks meet with no
// common filesystem: the launcher starts it once, and every rank is
// pointed at it with `-rdv tcp://host:port/job`. In file mode rank 0
// hosts one on loopback for the bootstrap and publishes its address to
// the rendezvous file.
//
// Protocol: each rank connects, sends a job hello (job name, its rank,
// the world size, and its mesh listen address), and waits; a hello
// declaring more than maxWorld ranks is refused. When all Size
// ranks of a job have checked in, the broker sends every one of them the
// completed address table and closes the connections (a rank whose
// connection ends before then gives its slot back); the ranks then
// form the usual full mesh directly (lower rank dials higher). The
// broker connections are bootstrap-only — no application traffic ever
// crosses the broker, and one broker serves any number of concurrent
// jobs, keyed by name.

// ParseRendezvous interprets a -rdv argument into cfg: a
// "tcp://host:port/job" URL selects broker bootstrap (the job component
// may be empty when the broker serves a single job), anything else is a
// rendezvous file path.
func ParseRendezvous(s string, cfg *Config) error {
	if !strings.HasPrefix(s, "tcp://") {
		cfg.RendezvousFile = s
		return nil
	}
	rest := strings.TrimPrefix(s, "tcp://")
	addr, job := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		addr, job = rest[:i], rest[i+1:]
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("tcptransport: rendezvous URL %q: %w", s, err)
	}
	cfg.BrokerAddr = addr
	cfg.Job = job
	return nil
}

// maxWorld caps the world size of a job and of a Transport. The broker
// sizes a job's roster by the size its first check-in declares, so that
// number comes off the network and must be bounded before it allocates.
const maxWorld = 1 << 16

// brokerJob is one job's partial roster on the broker.
type brokerJob struct {
	size  int
	addrs []string
	conns []net.Conn // indexed by rank; nil where not yet checked in
	got   int
}

// Broker is the rendezvous broker server. Create with NewBroker, run
// Serve (blocking), stop with Close.
type Broker struct {
	ln     net.Listener
	mu     sync.Mutex
	jobs   map[string]*brokerJob
	closed bool // Close has run: refuse every further check-in
}

// helloTimeout bounds how long an accepted connection may take to
// deliver its check-in, and the broker's write of each table. A rank
// that has checked in waits on its open connection, without a broker
// deadline, for the rest of its job to arrive.
const helloTimeout = 30 * time.Second

// NewBroker listens on addr (e.g. "127.0.0.1:0") and returns the broker.
func NewBroker(addr string) (*Broker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: broker listen %s: %w", addr, err)
	}
	return &Broker{ln: ln, jobs: make(map[string]*brokerJob)}, nil
}

// Addr returns the broker's actual listen address.
func (b *Broker) Addr() string { return b.ln.Addr().String() }

// Close stops the accept loop and drops every pending connection, so a
// rank waiting on an incomplete roster gets an error at once. A job
// whose roster is complete is already on its way out and is not cut.
func (b *Broker) Close() error {
	err := b.ln.Close()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for _, j := range b.jobs {
		for _, c := range j.conns {
			if c != nil {
				c.Close()
			}
		}
	}
	clear(b.jobs)
	return err
}

// Serve accepts rank check-ins until Close. Per-connection errors are
// contained (the offending connection is dropped); only listener failure
// ends the loop.
func (b *Broker) Serve() error {
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return err
		}
		go b.handle(conn)
	}
}

func (b *Broker) handle(conn net.Conn) {
	typ, body, err := readWireDeadline(conn, time.Now().Add(helloTimeout))
	if err != nil || typ != typJobHello {
		conn.Close()
		return
	}
	job, rank, size, addr, err := decodeJobHello(body)
	if err != nil || size < 1 || size > maxWorld || rank < 0 || rank >= size || addr == "" {
		conn.Close()
		return
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	j := b.jobs[job]
	if j == nil {
		j = &brokerJob{size: size, addrs: make([]string, size), conns: make([]net.Conn, size)}
		b.jobs[job] = j
	}
	if size != j.size || j.conns[rank] != nil {
		// Size disagreement or duplicate rank: reject the newcomer, keep
		// the roster. The first check-in holds its slot while its
		// connection is open.
		b.mu.Unlock()
		conn.Close()
		return
	}
	j.addrs[rank] = addr
	j.conns[rank] = conn
	j.got++
	if j.got < j.size {
		b.mu.Unlock()
		b.watch(job, j, rank, conn)
		return
	}
	delete(b.jobs, job)
	b.mu.Unlock()

	table := appendTable(nil, j.addrs)
	deadline := time.Now().Add(helloTimeout)
	for _, c := range j.conns {
		_ = writeWireDeadline(c, table, deadline)
		c.Close()
	}
}

// watch waits on a checked-in rank's connection, on which the rank sends
// nothing more. It returns when the connection ends: the roster completed
// or the broker closed (and the connection with it), or the rank went
// away first — then its slot is freed, so that a relaunched rank can
// check in again, and a job left with no rank is dropped.
func (b *Broker) watch(job string, j *brokerJob, rank int, conn net.Conn) {
	var one [1]byte
	_, _ = conn.Read(one[:]) // EOF, an error or a stray byte: the wait is over
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.jobs[job] != j || j.conns[rank] != conn {
		return
	}
	conn.Close()
	j.conns[rank], j.addrs[rank] = nil, ""
	if j.got--; j.got == 0 {
		delete(b.jobs, job)
	}
}

// hostBroker starts the broker rank 0 hosts in file mode, on loopback,
// and publishes its address to file (when set) for the other ranks.
func hostBroker(file string) (*Broker, error) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go b.Serve()
	if file != "" {
		if err := publishAddr(file, b.Addr()); err != nil {
			b.Close()
			return nil, err
		}
	}
	return b, nil
}

// checkIn is a rank's half of the broker protocol: dial the broker,
// listen on the local IP of that connection (loopback stays loopback, a
// routed interface stays routed), check in with that mesh address, and
// wait for the job's full address table.
func (t *Transport) checkIn(broker string, deadline time.Time) ([]string, error) {
	conn, err := dialRetry(broker, deadline)
	if err != nil {
		return nil, fmt.Errorf("rank %d dial broker %s: %w", t.cfg.Rank, broker, err)
	}
	defer conn.Close()
	local := *conn.LocalAddr().(*net.TCPAddr)
	local.Port = 0
	ln, err := net.ListenTCP("tcp", &local)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", &local, err)
	}
	t.ln = ln
	hello := appendJobHello(nil, t.cfg.Job, t.cfg.Rank, t.cfg.Size, ln.Addr().String())
	if err := writeWireDeadline(conn, hello, deadline); err != nil {
		return nil, fmt.Errorf("rank %d check-in with broker: %w", t.cfg.Rank, err)
	}
	typ, body, err := readWireDeadline(conn, deadline)
	if err != nil {
		return nil, fmt.Errorf("rank %d awaiting address table: %w", t.cfg.Rank, err)
	}
	if typ != typTable {
		return nil, fmt.Errorf("rank %d awaiting address table: got message type %d", t.cfg.Rank, typ)
	}
	addrs, err := decodeTable(body)
	if err != nil || len(addrs) != t.cfg.Size {
		return nil, fmt.Errorf("rank %d bad address table (%d entries): %v", t.cfg.Rank, len(addrs), err)
	}
	return addrs, nil
}

// appendJobHello appends the broker check-in: job name, world rank,
// world size, and the rank's advertised mesh address.
func appendJobHello(dst []byte, job string, rank, size int, addr string) []byte {
	if len(job) > math.MaxUint16 {
		job = job[:math.MaxUint16]
	}
	if len(addr) > math.MaxUint16 {
		addr = addr[:math.MaxUint16]
	}
	b := make([]byte, 0, 12+len(job)+len(addr))
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(rank))
	b = append(b, u[:]...)
	binary.LittleEndian.PutUint32(u[:], uint32(size))
	b = append(b, u[:]...)
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(job)))
	b = append(b, l[:]...)
	b = append(b, job...)
	binary.LittleEndian.PutUint16(l[:], uint16(len(addr)))
	b = append(b, l[:]...)
	b = append(b, addr...)
	return appendWire(dst, typJobHello, b)
}

// decodeJobHello decodes a broker check-in body.
func decodeJobHello(body []byte) (job string, rank, size int, addr string, err error) {
	if len(body) < 12 {
		return "", 0, 0, "", ErrTruncated
	}
	rank = int(int32(binary.LittleEndian.Uint32(body[0:])))
	size = int(int32(binary.LittleEndian.Uint32(body[4:])))
	nj := int(binary.LittleEndian.Uint16(body[8:]))
	off := 10
	if off+nj+2 > len(body) {
		return "", 0, 0, "", ErrTruncated
	}
	job = string(body[off : off+nj])
	off += nj
	na := int(binary.LittleEndian.Uint16(body[off:]))
	off += 2
	if off+na != len(body) {
		return "", 0, 0, "", ErrBadLength
	}
	return job, rank, size, string(body[off:]), nil
}
