package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
)

// outDir receives rendezvous files, traces and reports; the default
// is inside the benchmark's own directory, so nothing is written
// outside the checkout.
var outDir = filepath.Join("benchmark", "out")

// runTCPRound runs a round as np worker processes, one rank each: this
// binary re-executed in -worker mode, meeting through a rendezvous file
// and connecting over loopback TCP. It returns only after every worker
// has been waited for; a failing worker, or a cancelled ctx, kills the
// others, and the rendezvous directory is removed either way.
func runTCPRound(ctx context.Context, spec roundSpec) (*roundOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("tcp round: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("tcp round: %w", err)
	}
	dir, err := os.MkdirTemp(outDir, "rdv-")
	if err != nil {
		return nil, fmt.Errorf("tcp round: %w", err)
	}
	defer os.RemoveAll(dir)
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("tcp round: %w", err)
	}

	// Pdeathsig follows the spawning thread, not the process: hold the
	// thread until the workers are reaped so the signal means "the
	// harness died".
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	out := &roundOut{StartNs: time.Now().UnixNano()}
	cmds := make([]*exec.Cmd, 0, np)
	stdout := make([]bytes.Buffer, np)
	waitErr := make(chan error, np)
	var startErr error
	for rank := 0; rank < np; rank++ {
		cmd := exec.CommandContext(ctx, self, "-worker", string(specJSON),
			"-rank", strconv.Itoa(rank), "-rdv", filepath.Join(dir, "addr"))
		cmd.Stdout = &stdout[rank]
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if startErr = cmd.Start(); startErr != nil {
			cancel()
			break
		}
		cmds = append(cmds, cmd)
		go func() { waitErr <- cmd.Wait() }()
	}
	firstErr := startErr
	for range cmds {
		if err := <-waitErr; err != nil && firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%s tcp round: worker: %w", spec.Workload, firstErr)
	}

	out.Ranks = make([]rankOut, np)
	for rank, cmd := range cmds {
		if err := json.Unmarshal(stdout[rank].Bytes(), &out.Ranks[rank]); err != nil {
			return nil, fmt.Errorf("%s tcp round: rank %d result: %w", spec.Workload, rank, err)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			out.ChildRSS += int64(ru.Maxrss)
		}
	}
	return out, nil
}

// workerMain is one rank of a TCP round: it forms the mesh, runs the
// same rankBody as the in-process transport, and prints its rankOut.
func workerMain(specJSON string, rank int, rdv string) error {
	var spec roundSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("worker: spec: %w", err)
	}
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return err
	}
	cfg := w.config()
	opts := commOptions(cfg)
	if spec.Mode == modeObs {
		attachObs(&cfg, &opts, 1)
	}
	tr, err := tcptransport.New(tcptransport.Config{Rank: rank, Size: np, RendezvousFile: rdv})
	if err != nil {
		return fmt.Errorf("worker %d: %w", rank, err)
	}
	var out rankOut
	if _, err := comm.RunDistributed(tr, opts, func(r *comm.Rank) error {
		return rankBody(r, spec, cfg, &out)
	}); err != nil {
		return fmt.Errorf("worker %d: %w", rank, err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(&out); err != nil {
		return fmt.Errorf("worker %d: result: %w", rank, err)
	}
	return nil
}
