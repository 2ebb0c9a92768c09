// Restart: checkpoint/restart around a simulated failure. The run
// advances, checkpoints every few steps, "crashes", and resumes from the
// latest checkpoint — then verifies the resumed trajectory matches an
// uninterrupted run bit-for-bit (the determinism long campaigns rely on).
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/solver"
)

func main() {
	const (
		ranks      = 4
		n          = 6
		totalSteps = 12
		ckptEvery  = 4
	)
	dir, err := os.MkdirTemp("", "cmtbone-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := solver.DefaultConfig(ranks, n, 2)
	ic := solver.GaussianPulse(2, 2, 2, 0.1, 0.5)

	// Reference: uninterrupted run.
	reference := make([][]float64, ranks)
	_, err = comm.Run(ranks, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(ic)
		s.Run(totalSteps)
		reference[r.ID()] = append([]float64(nil), s.U[solver.IEnergy]...)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Interrupted run: advance 8 steps with periodic checkpoints, then
	// "crash" (drop all in-memory state).
	_, err = comm.Run(ranks, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(ic)
		for step := 1; step <= 8; step++ {
			s.Step(s.StableDt())
			if step%ckptEvery == 0 {
				tag := fmt.Sprintf("step%03d", step)
				if err := checkpoint.Dir(dir).Write(tag, s, int64(step), 0); err != nil {
					return err
				}
				if r.ID() == 0 {
					fmt.Printf("checkpointed at step %d -> %s\n", step, checkpoint.FilePath(dir, tag, 0))
				}
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("simulated crash after step 8; resuming from step 8 checkpoint")

	// Resume from the latest checkpoint and finish the campaign.
	maxDiff := make([]float64, ranks)
	_, err = comm.Run(ranks, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		snap, err := checkpoint.Dir(dir).Read("step008", r.ID())
		if err != nil {
			return err
		}
		step, _, err := checkpoint.Restore(s, snap)
		if err != nil {
			return err
		}
		s.Run(totalSteps - int(step))
		for i, v := range s.U[solver.IEnergy] {
			if d := math.Abs(v - reference[r.ID()][i]); d > maxDiff[r.ID()] {
				maxDiff[r.ID()] = d
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	worst := 0.0
	for _, d := range maxDiff {
		if d > worst {
			worst = d
		}
	}
	fmt.Printf("resumed run vs uninterrupted run: max |diff| = %.3g\n", worst)
	if worst == 0 {
		fmt.Println("bit-identical resume: checkpoints capture the full state")
	}
}
