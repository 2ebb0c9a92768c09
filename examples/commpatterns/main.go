// Commpatterns: a tour of the message-passing substrate itself — the
// runtime that stands in for MPI. It demonstrates sub-communicators,
// per-message tracing, transport calibration, and the virtual-clock
// machinery behind the modeled timings, all independent of the solver.
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

func main() {
	// 1. Calibrate an alpha-beta model to this host's real transport and
	// place it among the hardware presets.
	host, err := comm.CalibrateModel("this-host", nil, 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("transport models (latency / inverse bandwidth):")
	for _, m := range []netmodel.Model{host, netmodel.QDR, netmodel.GigE, netmodel.Exascale} {
		fmt.Printf("  %-18s alpha=%8.2ens  beta=%8.3f ns/KiB\n",
			m.Name, m.Alpha*1e9, m.Beta*1e9*1024)
	}

	// 2. Trace every wire message of a small run: an allreduce's
	// recursive-doubling rounds become visible.
	tel := obs.NewTracer()
	_, err = comm.Run(8, comm.Options{Model: netmodel.QDR, Tracer: obs.NewCommTracer(tel, nil),
		Grid: [3]int{2, 2, 2}}, func(r *comm.Rank) error {
		r.SetSite("demo_allreduce")
		r.Allreduce(comm.OpSum, []float64{float64(r.ID())})
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	sum := obs.SummarizeFlows(tel.Flows())
	fmt.Printf("\nallreduce on 8 ranks: %d wire messages (recursive doubling: 8 x log2(8)),\n",
		sum.Messages)
	fmt.Printf("  %d bytes total, mean hop distance %.2f on the 2x2x2 grid\n",
		sum.Bytes, sum.MeanHops)

	// 3. Sub-communicators: split the world into rows and reduce within
	// each row independently.
	rowSums := make([]float64, 8)
	_, err = comm.Run(8, comm.Options{Model: netmodel.QDR}, func(r *comm.Rank) error {
		row := r.ID() / 4 // two rows of four
		g := r.Split(row, r.ID())
		v := g.Allreduce(comm.OpSum, []float64{float64(r.ID())})
		rowSums[r.ID()] = v[0]
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrow-wise reductions via Split: row 0 sum = %.0f (0+1+2+3), row 1 sum = %.0f (4+5+6+7)\n",
		rowSums[0], rowSums[7])

	// 4. Virtual clocks: the same program yields modeled times under any
	// fabric — the mechanism behind every modeled column in this repo.
	for _, m := range []netmodel.Model{netmodel.QDR, netmodel.GigE} {
		stats, err := comm.Run(4, comm.Options{Model: m}, func(r *comm.Rank) error {
			for i := 0; i < 50; i++ {
				r.Allreduce(comm.OpSum, make([]float64, 128))
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("50 allreduces of 1KiB on 4 ranks: modeled %8.1fus on %s\n",
			stats.MaxVirtualTime()*1e6, m.Name)
	}
}
