// Package conformance is the behavioral bar every comm.Transport backend
// must clear: one table of contracts — FIFO ordering, Isend/Irecv
// matching, posted receives under one matching rule (posting order, on
// every communicator), collectives against serial references, CRC
// reject-and-retransmit, dead-rank error surfacing, Shrink re-formation,
// and the seeded randomized-collective property suite — run identically
// against the in-process reference backend and the TCP multi-process
// backend. A future backend (QUIC, shared memory) lands by passing this
// same table, not by growing its own tests.
//
// The in-process harness runs a contract directly under comm.Run. The
// TCP harness re-executes the test binary once per rank in worker mode
// (selected by environment variables, dispatched from TestMain before
// any test runs), so the contract body executes in genuinely separate OS
// processes connected by real sockets; each worker reports its rank's
// stats as JSON, and the parent merges them for the contract's Check.
// Because the workers are the test binary itself, a `-race` run spawns
// race-instrumented workers — a detected race fails the worker and
// therefore the suite.
package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
)

// Contract is one behavioral requirement, phrased as a program every
// rank runs plus a predicate over the merged run outcome. The same
// (seeded) program must pass on every backend.
type Contract struct {
	// Name identifies the contract in test names and worker dispatch.
	Name string
	// Ranks is the world size the contract runs at.
	Ranks int
	// Deterministic marks contracts whose virtual clocks and fault
	// counters must be bit-identical across backends (programs with no
	// death: modeled time is a function of program order and message
	// sizes only). The harness cross-checks them backend against backend.
	Deterministic bool
	// Opts builds the run options (fresh per run: fault planes carry
	// per-run counters).
	Opts func() comm.Options
	// Rank is the per-rank program. A non-nil error fails the contract.
	Rank func(r *comm.Rank, seed int64) error
	// Check, when non-nil, validates the merged outcome of the run.
	Check func(m *Merged, seed int64) error
	// Seeds to run; nil means {1}.
	Seeds []int64
}

// Merged is the outcome of one contract run, unified across however many
// processes hosted the ranks.
type Merged struct {
	Size         int
	VirtualTimes []float64 // final VT per world rank, from its hosting process
	Killed       []int     // world ranks that died, ascending
	CRCDetected  int64     // receive-side CRC rejections, summed
	Retransmits  int64     // send-side drops/corruptions, summed
}

// SeedList returns the contract's seeds, defaulting to {1}.
func (c *Contract) SeedList() []int64 {
	if len(c.Seeds) == 0 {
		return []int64{1}
	}
	return c.Seeds
}

func (c *Contract) opts() comm.Options {
	if c.Opts == nil {
		return comm.Options{}
	}
	return c.Opts()
}

// Lookup returns the named contract, or nil.
func Lookup(name string) *Contract {
	for i := range Contracts {
		if Contracts[i].Name == name {
			return &Contracts[i]
		}
	}
	return nil
}

// RunInProcess runs one contract seed on the reference backend.
func RunInProcess(c *Contract, seed int64) (*Merged, error) {
	stats, err := comm.Run(c.Ranks, c.opts(), func(r *comm.Rank) error {
		return c.Rank(r, seed)
	})
	if err != nil {
		return nil, err
	}
	m := &Merged{
		Size:         stats.Size,
		VirtualTimes: stats.VirtualTimes,
		Killed:       stats.Killed,
		CRCDetected:  stats.CRCDetected,
		Retransmits:  stats.Retransmits,
	}
	return m, c.check(m, seed)
}

func (c *Contract) check(m *Merged, seed int64) error {
	if c.Check == nil {
		return nil
	}
	return c.Check(m, seed)
}

// Worker-mode environment. The parent sets these on each spawned child;
// WorkerMain (called from TestMain) detects them and becomes rank
// CMT_CONF_RANK of the contract run instead of running tests.
const (
	envContract = "CMT_CONF_CONTRACT"
	envRank     = "CMT_CONF_RANK"
	envSize     = "CMT_CONF_SIZE"
	envSeed     = "CMT_CONF_SEED"
	envRdv      = "CMT_CONF_RDV"
	envStats    = "CMT_CONF_STATS"
)

// workerStats is one worker's contribution to Merged.
type workerStats struct {
	Rank   int     `json:"rank"`
	VT     float64 `json:"vt"`
	Killed []int   `json:"killed"`
	CRC    int64   `json:"crc"`
	Retx   int64   `json:"retx"`
}

// WorkerMain dispatches worker mode: a no-op in the parent test process,
// but in a spawned child it runs the contract rank and exits the process
// with 0 on success. Call it from TestMain before m.Run.
func WorkerMain() {
	name := os.Getenv(envContract)
	if name == "" {
		return
	}
	os.Exit(workerRun(name))
}

func workerRun(name string) int {
	c := Lookup(name)
	if c == nil {
		fmt.Fprintf(os.Stderr, "conformance worker: unknown contract %q\n", name)
		return 2
	}
	rank, err1 := strconv.Atoi(os.Getenv(envRank))
	size, err2 := strconv.Atoi(os.Getenv(envSize))
	seed, err3 := strconv.ParseInt(os.Getenv(envSeed), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		fmt.Fprintf(os.Stderr, "conformance worker: bad env: %v %v %v\n", err1, err2, err3)
		return 2
	}
	tr, err := tcptransport.New(tcptransport.Config{
		Rank: rank, Size: size,
		RendezvousFile:   os.Getenv(envRdv),
		BootstrapTimeout: 60 * time.Second,
		CloseTimeout:     60 * time.Second,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "conformance worker rank %d: bootstrap: %v\n", rank, err)
		return 1
	}
	stats, err := comm.RunDistributed(tr, c.opts(), func(r *comm.Rank) error {
		return c.Rank(r, seed)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "conformance worker rank %d: %v\n", rank, err)
		return 1
	}
	out := workerStats{
		Rank:   rank,
		VT:     stats.VirtualTimes[rank],
		Killed: stats.Killed,
		CRC:    stats.CRCDetected,
		Retx:   stats.Retransmits,
	}
	b, err := json.Marshal(out)
	if err == nil {
		err = os.WriteFile(os.Getenv(envStats), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "conformance worker rank %d: stats: %v\n", rank, err)
		return 1
	}
	return 0
}

// RunTCP runs one contract seed on the TCP backend: one spawned OS
// process per rank (re-executing the current binary in worker mode),
// merged stats, contract Check.
func RunTCP(c *Contract, seed int64) (*Merged, error) {
	dir, err := os.MkdirTemp("", "conformance-"+c.Name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rdv := filepath.Join(dir, "rendezvous")

	type child struct {
		cmd    *exec.Cmd
		stderr *bytes.Buffer
		stats  string
	}
	children := make([]child, c.Ranks)
	for rank := 0; rank < c.Ranks; rank++ {
		statsPath := filepath.Join(dir, fmt.Sprintf("stats-%d.json", rank))
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			envContract+"="+c.Name,
			envRank+"="+strconv.Itoa(rank),
			envSize+"="+strconv.Itoa(c.Ranks),
			envSeed+"="+strconv.FormatInt(seed, 10),
			envRdv+"="+rdv,
			envStats+"="+statsPath,
		)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			for _, ch := range children[:rank] {
				ch.cmd.Process.Kill()
				ch.cmd.Wait()
			}
			return nil, fmt.Errorf("spawn rank %d: %w", rank, err)
		}
		children[rank] = child{cmd: cmd, stderr: &stderr, stats: statsPath}
	}

	// A hung contract (the bug class several contracts are regressions
	// against) must fail, not wedge the suite: kill the fleet after a
	// generous deadline.
	timeout := time.AfterFunc(120*time.Second, func() {
		for _, ch := range children {
			ch.cmd.Process.Kill()
		}
	})
	defer timeout.Stop()

	var firstErr error
	for rank, ch := range children {
		if err := ch.cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("worker rank %d: %v\nstderr:\n%s", rank, err, ch.stderr.String())
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	m := &Merged{Size: c.Ranks, VirtualTimes: make([]float64, c.Ranks)}
	killed := map[int]bool{}
	for rank, ch := range children {
		b, err := os.ReadFile(ch.stats)
		if err != nil {
			return nil, fmt.Errorf("worker rank %d wrote no stats: %w", rank, err)
		}
		var ws workerStats
		if err := json.Unmarshal(b, &ws); err != nil {
			return nil, fmt.Errorf("worker rank %d stats: %w", rank, err)
		}
		if ws.Rank != rank {
			return nil, fmt.Errorf("worker rank %d reported as rank %d", rank, ws.Rank)
		}
		m.VirtualTimes[rank] = ws.VT
		m.CRCDetected += ws.CRC
		m.Retransmits += ws.Retx
		for _, k := range ws.Killed {
			killed[k] = true
		}
	}
	for k := range killed {
		m.Killed = append(m.Killed, k)
	}
	sort.Ints(m.Killed)
	return m, c.check(m, seed)
}
