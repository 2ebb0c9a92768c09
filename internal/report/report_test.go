package report

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/hw"
	"repro/internal/obs"
)

func sampleRun(t *testing.T) (*comm.Stats, obs.Profile) {
	t.Helper()
	recs := make([]*obs.RankTracer, 2)
	stats, err := comm.RunSimple(2, func(r *comm.Rank) error {
		p := (*obs.Tracer)(nil).Rank(r.ID(), r.Clock())
		reg := p.Region("gs_op", obs.CatGS)
		r.SetSite("gs_op")
		if r.ID() == 0 {
			r.Send(1, 0, []float64{1, 2, 3})
			r.Recv(1, 0)
		} else {
			r.Recv(0, 0)
			r.Send(0, 0, []float64{4})
		}
		r.SetSite("")
		reg.End()
		p.Finish()
		recs[r.ID()] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, obs.Merge(recs...)
}

func TestFig4Rendering(t *testing.T) {
	stats, prof := sampleRun(t)
	out := Fig4ExecutionProfile(prof, stats)
	for _, want := range []string{"Figure 4", "gs_op", "% time", "self(s)", "call graph", "parent -> child", "<root> -> gs_op"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4MPISubtraction(t *testing.T) {
	stats, prof := sampleRun(t)
	with := Fig4ExecutionProfile(prof, stats)
	without := Fig4ExecutionProfile(prof, nil)
	if with == without {
		t.Fatal("MPI subtraction had no effect on the rendered profile")
	}
	if !strings.Contains(with, "MPI blocking excluded") {
		t.Fatal("CPU-view caveat missing")
	}
}

func TestFig5TableLayout(t *testing.T) {
	rows := []KernelRow{
		KernelEstimate("dudt", 4.89, hw.Estimate{Instructions: 1158978395, Cycles: 762267174}),
		KernelEstimate("dudr", 8.60, hw.Estimate{Instructions: 2402189302, Cycles: 1355354404}),
	}
	out := Fig5or6KernelTable("Figure 5", rows)
	for _, want := range []string{"Figure 5", "dudt", "dudr", "1158978395", "Total cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFig7Rendering(t *testing.T) {
	rows := []Fig7Row{
		{App: "CMT-bone", Timing: gs.Timing{Method: gs.Pairwise, WallAvg: 3e-4, WallMin: 2e-4, WallMax: 4e-4}},
		{App: "Nekbone", Timing: gs.Timing{Method: gs.CrystalRouter, WallAvg: 6e-4, WallMin: 5e-4, WallMax: 7e-4}},
	}
	out := Fig7GSComparison(rows, map[string]gs.Method{
		"CMT-bone": gs.Pairwise, "Nekbone": gs.CrystalRouter,
	})
	for _, want := range []string{"pairwise exchange", "crystal router", "CMT-bone", "Nekbone", "selected for"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8Rendering(t *testing.T) {
	stats, _ := sampleRun(t)
	wall := Fig8MPIFractions(stats.RankMPIFractions(), false)
	modeled := Fig8MPIFractions(stats.RankMPIFractions(), true)
	for _, out := range []string{wall, modeled} {
		if !strings.Contains(out, "rank    0") || !strings.Contains(out, "rank    1") {
			t.Fatalf("Fig8 missing rank rows:\n%s", out)
		}
		if !strings.Contains(out, "|") {
			t.Fatal("Fig8 missing bars")
		}
	}
	if !strings.Contains(wall, "wall") || !strings.Contains(modeled, "modeled") {
		t.Fatal("Fig8 basis annotation missing")
	}
}

func TestFig9Rendering(t *testing.T) {
	stats, _ := sampleRun(t)
	out := Fig9TopMPICalls(stats.AggregateSites(), 20, stats.TotalAppWall())
	if !strings.Contains(out, "MPI_Send@gs_op") && !strings.Contains(out, "MPI_Recv@gs_op") {
		t.Fatalf("Fig9 missing gs_op call sites:\n%s", out)
	}
}

func TestFig9TruncatesToN(t *testing.T) {
	stats, _ := sampleRun(t)
	out := Fig9TopMPICalls(stats.AggregateSites(), 1, stats.TotalAppWall())
	lines := strings.Count(out, "\n")
	if lines > 3 { // title + header + 1 row
		t.Fatalf("Fig9 top-1 rendered %d lines:\n%s", lines, out)
	}
}

func TestFig10Rendering(t *testing.T) {
	stats, _ := sampleRun(t)
	out := Fig10MessageSizes(stats.AggregateSites(), 10)
	if !strings.Contains(out, "total bytes") || !strings.Contains(out, "avg bytes") {
		t.Fatalf("Fig10 missing size columns:\n%s", out)
	}
	// Zero-byte entries (e.g. pure waits without payloads) are skipped —
	// the table only shows calls that actually moved data.
	if strings.Contains(out, " 0.0 ") {
		t.Fatalf("Fig10 rendered a zero-size row:\n%s", out)
	}
}

func TestBarClamps(t *testing.T) {
	if got := bar(-0.5, 10); got != ".........." {
		t.Fatalf("bar(-0.5) = %q", got)
	}
	if got := bar(2.0, 10); got != "##########" {
		t.Fatalf("bar(2.0) = %q", got)
	}
	if got := bar(0.5, 10); got != "#####....." {
		t.Fatalf("bar(0.5) = %q", got)
	}
}

func TestCSVExports(t *testing.T) {
	stats, _ := sampleRun(t)
	var b strings.Builder
	if err := MPISitesCSV(&b, stats.AggregateSites()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "op,site,calls") {
		t.Fatalf("MPI CSV header missing:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "MPI_Send,gs_op") {
		t.Fatalf("MPI CSV rows missing:\n%s", b.String())
	}

	b.Reset()
	rows := []KernelRow{{Name: "dudt", Runtime: 1.5, Instructions: 100, Cycles: 200}}
	if err := KernelTableCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dudt,1.5") {
		t.Fatalf("kernel CSV wrong:\n%s", b.String())
	}

	b.Reset()
	f7 := []Fig7Row{{App: "CMT-bone", Timing: gs.Timing{Method: gs.Pairwise, WallAvg: 1e-3}}}
	if err := Fig7CSV(&b, f7); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CMT-bone,pairwise exchange") {
		t.Fatalf("fig7 CSV wrong:\n%s", b.String())
	}
}
