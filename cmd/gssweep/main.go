// Command gssweep reproduces the paper's Figure 7: it times the
// gather-scatter exchange algorithm candidates (pairwise exchange,
// crystal router, and — when feasible — all_reduce) for both CMT-bone's
// DG face-exchange pattern and Nekbone's continuous dssum pattern on the
// same problem setup, reporting avg/min/max times across ranks and the
// method each mini-app's tuner selects. Beside each pattern it prints the
// rate of the local gather-scatter kernels on rank 0 (ns per point, and
// the GB/s that implies for their computed index and value traffic).
//
// The default setup is scaled down from the paper's (256 ranks, 100
// elements/rank, N=10) to run quickly in-process; pass -paper for the
// full Figure 7 configuration.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/mesh"
	"repro/internal/netmodel"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gssweep: ")

	np := flag.Int("np", 64, "number of ranks")
	n := flag.Int("n", 6, "GLL points per direction per element")
	local := flag.Int("local", 2, "elements per rank per direction")
	trials := flag.Int("trials", 3, "timing trials per method")
	paper := flag.Bool("paper", false, "use the paper's exact Figure 7 setup (256 ranks, 5x5x4 local elements, N=10)")
	netName := flag.String("net", netmodel.QDR.Name, "network model: "+strings.Join(netmodel.Names(), ", "))
	csvPath := flag.String("csv", "", "also write the comparison as CSV to this file")
	cli.Parse()

	model, err := netmodel.ByName(*netName)
	if err != nil {
		log.Fatalf("-net: %v", err)
	}

	procGrid := comm.FactorGrid(*np)
	elemGrid := [3]int{procGrid[0] * *local, procGrid[1] * *local, procGrid[2] * *local}
	if *paper {
		*np = 256
		*n = 10
		procGrid = [3]int{8, 8, 4}
		elemGrid = [3]int{40, 40, 16}
	}
	periodic := [3]bool{true, true, true}

	box, err := mesh.NewBox(procGrid, elemGrid, *n, periodic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Setup:\n")
	fmt.Printf("  Number of processors: %d          Dimensions = 3\n", *np)
	fmt.Printf("  Number of elements per process = %d   Processor Distribution (x,y,z) = %d, %d, %d\n",
		box.LocalElems(), procGrid[0], procGrid[1], procGrid[2])
	fmt.Printf("  Total elements = %d                Element Distribution (x,y,z) = %d, %d, %d\n",
		box.TotalElems(), elemGrid[0], elemGrid[1], elemGrid[2])
	per := box.ElemsPerRank()
	fmt.Printf("  Number of gridpoints per element = %d  Local Element Distribution (x,y,z) = %d, %d, %d\n",
		*n, per[0], per[1], per[2])
	fmt.Printf("  Network model: %s\n\n", model)

	sweep := func(app string, idsOf func(*mesh.Local) []int64) ([]gs.Timing, gs.Method, gs.LocalRate) {
		var timings []gs.Timing
		var chosen gs.Method
		var local gs.LocalRate
		_, err := comm.Run(*np, comm.Options{Model: model, Grid: procGrid, Periodic: periodic},
			func(r *comm.Rank) error {
				g := gs.Setup(r, idsOf(box.Partition(r.ID())))
				m, ts := gs.TuneModeled(g, *trials)
				if r.ID() == 0 {
					timings = ts
					chosen = m
					local = g.LocalRate(20 * *trials)
				}
				return nil
			})
		if err != nil {
			log.Fatalf("%s sweep: %v", app, err)
		}
		return timings, chosen, local
	}

	cmtTimings, cmtChoice, cmtLocal := sweep("CMT-bone", func(l *mesh.Local) []int64 { return l.DGFaceIDs() })
	nekTimings, nekChoice, nekLocal := sweep("Nekbone", func(l *mesh.Local) []int64 { return l.ContinuousIDs() })

	var rows []report.Fig7Row
	for _, t := range cmtTimings {
		rows = append(rows, report.Fig7Row{App: "CMT-bone", Timing: t})
	}
	for _, t := range nekTimings {
		rows = append(rows, report.Fig7Row{App: "Nekbone", Timing: t})
	}
	fmt.Print(report.Fig7GSComparison(rows, map[string]gs.Method{
		"CMT-bone": cmtChoice,
		"Nekbone":  nekChoice,
	}))

	fmt.Printf("\nLocal gs kernels on rank 0 (OpSum: local pass + remote gather and scatter, best of %d):\n", 20**trials)
	for _, row := range []struct {
		app string
		lr  gs.LocalRate
	}{{"CMT-bone", cmtLocal}, {"Nekbone", nekLocal}} {
		fmt.Printf("  %-9s %7d points  %6.2f ns/point  %6.1f GB/s computed (index + value bytes over that time)\n",
			row.app, row.lr.Points, row.lr.NsPerPoint, row.lr.GBps)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.Fig7CSV(f, rows); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}
