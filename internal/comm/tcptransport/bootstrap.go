package tcptransport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Mesh formation. Every mode ends in the same shape — a full mesh with
// exactly one connection per rank pair, the lower-numbered side having
// dialed — so the rest of the transport never cares how the mesh formed.
//
// Without explicit peers every rank binds an ephemeral port (fixed ports
// collide in CI) and learns the others' from a rendezvous broker
// (broker.go): the cmtbroker at Config.BrokerAddr, or, in file mode, one
// that rank 0 hosts for the bootstrap and publishes to the rendezvous
// file. Either way every rank runs the same check-in.

// ErrBootstrap is matched (errors.Is) by every error New returns once
// the config is valid: a listen, dial or rendezvous-file failure, a bad
// hello or table, an expired BootstrapTimeout, and a broker (rank 0's or
// a cmtbroker) that closed before its job's roster was complete.
var ErrBootstrap = errors.New("tcptransport: bootstrap")

// bootstrap forms the mesh per the config, filling t.ln and t.peers.
func (t *Transport) bootstrap() error {
	deadline := time.Now().Add(t.cfg.bootstrapTimeout())
	if t.cfg.Peers != nil {
		ln, err := net.Listen("tcp", t.cfg.Peers[t.cfg.Rank])
		if err != nil {
			return fmt.Errorf("listen %s: %w", t.cfg.Peers[t.cfg.Rank], err)
		}
		t.ln = ln
		return t.meshConnect(deadline, t.cfg.Peers)
	}
	var (
		broker = t.cfg.BrokerAddr
		host   *Broker
		err    error
	)
	switch {
	case broker != "":
	case t.cfg.Rank == 0:
		if host, err = hostBroker(t.cfg.RendezvousFile); err != nil {
			return err
		}
		broker = host.Addr()
	default:
		if broker, err = awaitAddr(t.cfg.RendezvousFile, deadline); err != nil {
			return err
		}
	}
	addrs, err := t.checkIn(broker, deadline)
	if host != nil {
		// A completed roster leaves the broker before any table is
		// sent, so closing it now cuts no rank's table short.
		host.Close()
	}
	if err != nil {
		return err
	}
	return t.meshConnect(deadline, addrs)
}

// meshConnect forms the lower-dials-higher edges given everyone's listen
// address: this rank dials every higher rank (identifying itself with a
// hello) and accepts every lower one.
func (t *Transport) meshConnect(deadline time.Time, addrs []string) error {
	id := t.cfg.Rank
	type dialResult struct {
		rank int
		conn net.Conn
		err  error
	}
	results := make(chan dialResult, t.cfg.Size)
	for j := id + 1; j < t.cfg.Size; j++ {
		go func(j int) {
			conn, err := dialRetry(addrs[j], deadline)
			if err == nil {
				err = writeWireDeadline(conn, appendHello(nil, id), deadline)
				if err != nil {
					conn.Close()
					conn = nil
				}
			}
			results <- dialResult{j, conn, err}
		}(j)
	}

	for accepts := id; accepts > 0; {
		if dl, ok := t.ln.(*net.TCPListener); ok {
			dl.SetDeadline(deadline)
		}
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("rank %d accept (%d edges pending): %w", id, accepts, err)
		}
		typ, body, rerr := readWireDeadline(conn, deadline)
		if rerr != nil || typ != typHello {
			conn.Close()
			continue // stray connection; keep waiting
		}
		rank, derr := decodeHello(body)
		if derr != nil || rank < 0 || rank >= id {
			conn.Close()
			return fmt.Errorf("rank %d got bad hello (rank %d): %v", id, rank, derr)
		}
		if err := t.addPeer(rank, conn); err != nil {
			return err
		}
		accepts--
	}

	for j := id + 1; j < t.cfg.Size; j++ {
		res := <-results
		if res.err != nil {
			return fmt.Errorf("rank %d dial rank %d: %w", id, res.rank, res.err)
		}
		if err := t.addPeer(res.rank, res.conn); err != nil {
			return err
		}
	}
	return nil
}

// dialRetry dials addr with backoff until it connects or the deadline
// expires — peers of a launched run come up in any order.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	backoff := 5 * time.Millisecond
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = errors.New("deadline expired")
			}
			return nil, lastErr
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return conn, nil
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// publishAddr atomically writes addr to path (write temp + rename), so a
// polling reader never observes a partial address.
func publishAddr(path, addr string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".rendezvous-*")
	if err != nil {
		return fmt.Errorf("publish rendezvous address: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.WriteString(addr + "\n"); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("publish rendezvous address: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("publish rendezvous address: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("publish rendezvous address: %w", err)
	}
	return nil
}

// awaitAddr polls path until the address rank 0's broker publishes there
// appears or the deadline expires.
func awaitAddr(path string, deadline time.Time) (string, error) {
	if path == "" {
		return "", errors.New("no rendezvous file or broker configured")
	}
	for {
		b, err := os.ReadFile(path)
		if err == nil {
			if addr := strings.TrimSpace(string(b)); addr != "" {
				return addr, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("rendezvous file %s empty after timeout", path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
