package tcptransport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
)

func TestParseRendezvous(t *testing.T) {
	var cfg Config
	if err := ParseRendezvous("/tmp/rdv-file", &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.RendezvousFile != "/tmp/rdv-file" || cfg.BrokerAddr != "" {
		t.Fatalf("file form parsed as %+v", cfg)
	}

	cfg = Config{}
	if err := ParseRendezvous("tcp://10.0.0.1:9333/jobA", &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.BrokerAddr != "10.0.0.1:9333" || cfg.Job != "jobA" || cfg.RendezvousFile != "" {
		t.Fatalf("url form parsed as %+v", cfg)
	}

	cfg = Config{}
	if err := ParseRendezvous("tcp://localhost:70000/x", &cfg); err == nil {
		// SplitHostPort accepts any port string; the dial rejects it
		// later. Only a missing port is a parse error.
		_ = cfg
	}
	if err := ParseRendezvous("tcp://noport", &Config{}); err == nil {
		t.Fatal("address without port accepted")
	}
}

func TestJobHelloRoundTrip(t *testing.T) {
	wire := appendJobHello(nil, "job-7", 3, 8, "10.1.2.3:4567")
	var buf []byte
	typ, body, err := readWire(bytes.NewReader(wire), &buf)
	if err != nil || typ != typJobHello {
		t.Fatalf("typ %d err %v", typ, err)
	}
	job, rank, size, addr, err := decodeJobHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if job != "job-7" || rank != 3 || size != 8 || addr != "10.1.2.3:4567" {
		t.Fatalf("round trip: %q %d %d %q", job, rank, size, addr)
	}
	// Truncation and length lies must error, not panic.
	for cut := 0; cut < len(body); cut++ {
		decodeJobHello(body[:cut])
	}
}

// Two concurrent jobs rendezvous through one broker, form their meshes,
// and run a collective each — no rendezvous file anywhere.
func TestBrokerTwoConcurrentJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns goroutine fleets with real sockets")
	}
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve()
	defer b.Close()

	runJob := func(job string, size int) error {
		var wg sync.WaitGroup
		errs := make([]error, size)
		for rank := 0; rank < size; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				tr, err := New(Config{
					Rank: rank, Size: size,
					BrokerAddr: b.Addr(), Job: job,
					BootstrapTimeout: 30 * time.Second,
					CloseTimeout:     30 * time.Second,
				})
				if err != nil {
					errs[rank] = err
					return
				}
				_, err = comm.RunDistributed(tr, comm.Options{}, func(r *comm.Rank) error {
					sum := r.Allreduce(comm.OpSum, []float64{1})
					if sum[0] != float64(size) {
						return fmt.Errorf("allreduce = %v, want %d", sum[0], size)
					}
					return nil
				})
				errs[rank] = err
			}(rank)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				return fmt.Errorf("%s rank %d: %w", job, rank, err)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	jobErrs := make([]error, 2)
	for i, spec := range []struct {
		job  string
		size int
	}{{"alpha", 3}, {"beta", 4}} {
		wg.Add(1)
		go func(i int, job string, size int) {
			defer wg.Done()
			jobErrs[i] = runJob(job, size)
		}(i, spec.job, spec.size)
	}
	wg.Wait()
	for _, err := range jobErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// startBroker runs a broker on loopback for the test's lifetime.
func startBroker(t *testing.T) *Broker {
	t.Helper()
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve()
	t.Cleanup(func() { b.Close() })
	return b
}

// jobCheckedIn reports how many ranks of job have checked in with b
// (0 when it holds no such job).
func jobCheckedIn(b *Broker, job string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if j := b.jobs[job]; j != nil {
		return j.got
	}
	return 0
}

// A check-in declaring a world above maxWorld is refused before the
// broker sizes a roster from it: the connection closes and no job
// exists. A world of exactly maxWorld is taken.
func TestBrokerRefusesOversizeWorld(t *testing.T) {
	b := startBroker(t)
	checkIn := func(job string, size int) net.Conn {
		conn, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write(appendJobHello(nil, job, 0, size, "127.0.0.1:9")); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	for _, size := range []int{math.MaxInt32, maxWorld + 1} {
		conn := checkIn("huge", size)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("size %d: read %v, want the broker to close the connection (EOF)", size, err)
		}
		b.mu.Lock()
		jobs := len(b.jobs)
		b.mu.Unlock()
		if jobs != 0 {
			t.Fatalf("size %d: broker holds %d jobs after refusing the check-in", size, jobs)
		}
	}

	checkIn("largest", maxWorld)
	for deadline := time.Now().Add(5 * time.Second); jobCheckedIn(b, "largest") != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("size %d check-in not taken", maxWorld)
		}
	}
}

// A bootstrap host that dies before its job's roster is complete fails
// every rank already checked in at once, not at its BootstrapTimeout,
// with an error matching ErrBootstrap. Two hosts: the broker rank 0
// runs in file mode (rank 0 gives up first, on a short timeout), and a
// cmtbroker closed under the waiting ranks.
func TestBootstrapHostDeath(t *testing.T) {
	const size, waiting = 3, 30 * time.Second
	type result struct {
		rank    int
		err     error
		elapsed time.Duration
	}
	// start runs New for each config in its own goroutine.
	start := func(cfgs ...Config) <-chan result {
		out := make(chan result, len(cfgs))
		for _, cfg := range cfgs {
			go func(cfg Config) {
				t0 := time.Now()
				tr, err := New(cfg)
				if tr != nil {
					tr.Abort()
				}
				out <- result{cfg.Rank, err, time.Since(t0)}
			}(cfg)
		}
		return out
	}
	check := func(t *testing.T, res <-chan result, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			r := <-res
			if !errors.Is(r.err, ErrBootstrap) {
				t.Errorf("rank %d: New returned %v, want an ErrBootstrap", r.rank, r.err)
			}
			if r.elapsed > waiting/6 {
				t.Errorf("rank %d: failed after %v of a %v bootstrap timeout: %v", r.rank, r.elapsed, waiting, r.err)
			}
		}
	}

	t.Run("rank0-broker", func(t *testing.T) {
		rdv := filepath.Join(t.TempDir(), "rendezvous")
		res := start(
			// Rank 1 checks in within milliseconds; the second is slack
			// for a loaded host.
			Config{Rank: 0, Size: size, RendezvousFile: rdv, BootstrapTimeout: time.Second},
			Config{Rank: 1, Size: size, RendezvousFile: rdv, BootstrapTimeout: waiting},
		)
		check(t, res, 2)
	})

	t.Run("cmtbroker", func(t *testing.T) {
		b := startBroker(t)
		res := start(
			Config{Rank: 0, Size: size, BrokerAddr: b.Addr(), Job: "j", BootstrapTimeout: waiting},
			Config{Rank: 2, Size: size, BrokerAddr: b.Addr(), Job: "j", BootstrapTimeout: waiting},
		)
		for deadline := time.Now().Add(5 * time.Second); jobCheckedIn(b, "j") != 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("ranks 0 and 2 did not check in")
			}
		}
		b.Close()
		check(t, res, 2)
	})
}

// Every bootstrap failure, not only a host's death, matches ErrBootstrap.
func TestBootstrapFailuresAreTyped(t *testing.T) {
	// An address nobody listens on: bind a port, then free it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	const short = 200 * time.Millisecond
	for name, cfg := range map[string]Config{
		"no-rendezvous":     {Rank: 1, Size: 2},
		"unpublished-file":  {Rank: 1, Size: 2, RendezvousFile: filepath.Join(t.TempDir(), "never"), BootstrapTimeout: short},
		"broker-not-up":     {Rank: 0, Size: 2, BrokerAddr: dead, BootstrapTimeout: short},
		"unlistenable-peer": {Rank: 0, Size: 2, Peers: []string{"256.0.0.1:0", dead}, BootstrapTimeout: short},
		"absent-peer":       {Rank: 0, Size: 2, Peers: []string{"127.0.0.1:0", dead}, BootstrapTimeout: short},
	} {
		tr, err := New(cfg)
		if tr != nil {
			tr.Abort()
		}
		if !errors.Is(err, ErrBootstrap) {
			t.Errorf("%s: New returned %v, want an ErrBootstrap", name, err)
		}
	}
	if _, err := New(Config{Rank: 0, Size: 0}); err == nil || errors.Is(err, ErrBootstrap) {
		t.Errorf("invalid config: New returned %v, want a config error that is not ErrBootstrap", err)
	}
}

// A rank that checks in and dies gives its slot back, and the job, left
// with no rank, is dropped: rank 0 checks in and closes its connection,
// then ranks 0 and 1 of a relaunch rendezvous under the same job name
// and connect.
func TestBrokerFreesDeadRankSlot(t *testing.T) {
	b := startBroker(t)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(appendJobHello(nil, "relaunch", 0, 2, "127.0.0.1:9")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); jobCheckedIn(b, "relaunch") != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("rank 0's check-in not taken")
		}
	}
	conn.Close()
	dropped := func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.jobs["relaunch"] == nil
	}
	for deadline := time.Now().Add(5 * time.Second); !dropped(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the broker still holds the job of a rank that went away")
		}
	}

	errs := make(chan error, 2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			tr, err := New(Config{Rank: rank, Size: 2, BrokerAddr: b.Addr(), Job: "relaunch", BootstrapTimeout: 10 * time.Second})
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", rank, err)
				return
			}
			_, err = comm.RunDistributed(tr, comm.Options{}, func(r *comm.Rank) error {
				if sum := r.Allreduce(comm.OpSum, []float64{1}); sum[0] != 2 {
					return fmt.Errorf("allreduce = %v, want 2", sum[0])
				}
				return nil
			})
			errs <- err
		}(rank)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
