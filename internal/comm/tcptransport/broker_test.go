package tcptransport

import (
	"bytes"
	"fmt"
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
