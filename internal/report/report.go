// Package report renders the reproduction outputs: for every table and
// figure of the paper's evaluation, a text table in the same shape, fed
// by the recorders and models of the other packages.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/hw"
	"repro/internal/obs"
)

// bar renders a crude horizontal bar for terminal "plots".
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// Fig4ExecutionProfile renders the gprof-style flat profile and partial
// call graph (paper Figure 4) from the ranks' merged region recorders.
// gprof samples CPU time, so time blocked inside MPI must not inflate the
// communication regions: when stats is non-nil, each region's self time
// is reduced by the MPI wall time recorded under the same call-site
// label (gs_op, gs_setup, glsum, ...), clamped at zero.
func Fig4ExecutionProfile(p obs.Profile, stats *comm.Stats) string {
	flat := append([]obs.RegionStat(nil), p.Flat...)
	if stats != nil {
		mpiBySite := map[string]float64{}
		for _, s := range stats.AggregateSites() {
			mpiBySite[s.Site] += s.Wall
		}
		for i := range flat {
			if w, ok := mpiBySite[flat[i].Name]; ok {
				flat[i].Self = max(flat[i].Self-w, 0)
			}
		}
		sort.SliceStable(flat, func(i, j int) bool { return flat[i].Self > flat[j].Self })
	}
	sumSelf := 0.0
	for _, r := range flat {
		sumSelf += r.Self
	}
	var b strings.Builder
	b.WriteString("Figure 4 — CMT-bone execution profile (gprof equivalent)\n")
	b.WriteString("Flat profile (CPU-time view, MPI blocking excluded, all ranks merged):\n")
	fmt.Fprintf(&b, "%7s %12s %12s %10s  %s\n", "% time", "self(s)", "total(s)", "calls", "name")
	for _, r := range flat {
		pct := 0.0
		if sumSelf > 0 {
			pct = 100 * r.Self / sumSelf
		}
		fmt.Fprintf(&b, "%6.2f%% %12.6f %12.6f %10d  %s\n", pct, r.Self, r.Total, r.Calls, r.Name)
	}
	b.WriteString("\nPartial call graph:\n")
	fmt.Fprintf(&b, "%12s %10s  %s\n", "total(s)", "calls", "parent -> child")
	for _, e := range p.Edges {
		fmt.Fprintf(&b, "%12.6f %10d  %s -> %s\n", e.Total, e.Calls, e.Parent, e.Child)
	}
	fmt.Fprintf(&b, "\nTotal profiled wall time across ranks: %.3fs\n", p.Elapsed)
	return b.String()
}

// KernelRow is one line of the Figures 5-6 tables.
type KernelRow struct {
	Name         string
	Runtime      float64 // measured host seconds
	Instructions int64   // modeled (hw) instruction count
	Cycles       int64   // modeled (hw) cycle count
}

// Fig5or6KernelTable renders the derivative-kernel statistics table in
// the paper's layout: Derivatives | Runtime | Total instructions | Total
// cycles.
func Fig5or6KernelTable(title string, rows []KernelRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-8s %14s %20s %18s\n", "Kernel", "Runtime (s)", "Total instructions", "Total cycles")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %14.3f %20d %18d\n", r.Name, r.Runtime, r.Instructions, r.Cycles)
	}
	return b.String()
}

// Fig7Row is one mini-app/method line of the Figure 7 comparison.
type Fig7Row struct {
	App    string
	Timing gs.Timing
}

// Fig7GSComparison renders the gather-scatter method comparison in the
// paper's layout (avg/min/max seconds per operation), with both measured
// host times and modeled cluster times.
func Fig7GSComparison(rows []Fig7Row, chosen map[string]gs.Method) string {
	var b strings.Builder
	b.WriteString("Figure 7 — gather-scatter exchange algorithm comparison\n")
	fmt.Fprintf(&b, "%-10s %-18s %13s %13s %13s   %13s %13s %13s\n",
		"Mini-app", "All-to-all method",
		"wall avg (s)", "wall min (s)", "wall max (s)",
		"model avg(s)", "model min(s)", "model max(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-18s %13.9f %13.9f %13.9f   %13.9f %13.9f %13.9f\n",
			r.App, r.Timing.Method.String(),
			r.Timing.WallAvg, r.Timing.WallMin, r.Timing.WallMax,
			r.Timing.ModelAvg, r.Timing.ModelMin, r.Timing.ModelMax)
	}
	apps := make([]string, 0, len(chosen))
	for app := range chosen {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		fmt.Fprintf(&b, "selected for %-10s: %s\n", app, chosen[app])
	}
	return b.String()
}

// Fig8MPIFractions renders the per-rank MPI time share (paper Figure 8)
// as a bar chart over ranks.
func Fig8MPIFractions(fr []comm.RankMPI, modeled bool) string {
	var b strings.Builder
	b.WriteString("Figure 8 — % time spent in MPI calls per rank\n")
	kind := "wall"
	if modeled {
		kind = "modeled"
	}
	fmt.Fprintf(&b, "(%s time basis)\n", kind)
	for _, f := range fr {
		frac := f.FracWall()
		if modeled {
			frac = f.FracModeled()
		}
		fmt.Fprintf(&b, "rank %4d %6.2f%% |%s|\n", f.Rank, 100*frac, bar(frac, 40))
	}
	return b.String()
}

// Fig9TopMPICalls renders the top-N MPI call sites by aggregate time
// (paper Figure 9).
func Fig9TopMPICalls(sites []comm.SiteSummary, n int, totalAppWall float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 — time spent in the top %d MPI calls\n", n)
	fmt.Fprintf(&b, "%-32s %12s %9s %12s %10s\n", "MPI call @ site", "time (s)", "% app", "modeled (s)", "calls")
	for i, s := range sites {
		if i >= n {
			break
		}
		pct := 0.0
		if totalAppWall > 0 {
			pct = 100 * s.Wall / totalAppWall
		}
		fmt.Fprintf(&b, "%-32s %12.6f %8.3f%% %12.6f %10d\n", s.Name(), s.Wall, pct, s.Modeled, s.Count)
	}
	return b.String()
}

// Fig10MessageSizes renders total and average message sizes for the most
// frequently called MPI operations (paper Figure 10).
func Fig10MessageSizes(sites []comm.SiteSummary, n int) string {
	// Order by call frequency, as the paper's "most frequently called".
	byCount := append([]comm.SiteSummary(nil), sites...)
	sort.SliceStable(byCount, func(i, j int) bool { return byCount[i].Count > byCount[j].Count })
	var b strings.Builder
	b.WriteString("Figure 10 — total and average size of messages in the most frequent MPI calls\n")
	fmt.Fprintf(&b, "%-32s %10s %16s %14s %12s %12s\n",
		"MPI call @ site", "calls", "total bytes", "avg bytes", "min bytes", "max bytes")
	for i, s := range byCount {
		if i >= n {
			break
		}
		if s.Bytes == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-32s %10d %16d %14.1f %12d %12d\n",
			s.Name(), s.Count, s.Bytes, s.AvgBytes(), s.MinBytes, s.MaxBytes)
	}
	return b.String()
}

// KernelEstimate packages a hw model estimate into a KernelRow.
func KernelEstimate(name string, runtime float64, est hw.Estimate) KernelRow {
	return KernelRow{Name: name, Runtime: runtime, Instructions: est.Instructions, Cycles: est.Cycles}
}

// CSV export: machine-readable forms of the figure tables, for plotting
// pipelines.

// KernelTableCSV renders Figure 5/6 rows as CSV.
func KernelTableCSV(w io.Writer, rows []KernelRow) error {
	if _, err := fmt.Fprintln(w, "kernel,runtime_s,instructions,cycles"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%.9f,%d,%d\n", r.Name, r.Runtime, r.Instructions, r.Cycles); err != nil {
			return err
		}
	}
	return nil
}

// Fig7CSV renders the gather-scatter comparison as CSV.
func Fig7CSV(w io.Writer, rows []Fig7Row) error {
	if _, err := fmt.Fprintln(w,
		"app,method,wall_avg_s,wall_min_s,wall_max_s,model_avg_s,model_min_s,model_max_s"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f\n",
			r.App, r.Timing.Method, r.Timing.WallAvg, r.Timing.WallMin, r.Timing.WallMax,
			r.Timing.ModelAvg, r.Timing.ModelMin, r.Timing.ModelMax); err != nil {
			return err
		}
	}
	return nil
}

// MPISitesCSV renders the aggregated MPI call-site table (Figures 9-10
// data) as CSV.
func MPISitesCSV(w io.Writer, sites []comm.SiteSummary) error {
	if _, err := fmt.Fprintln(w,
		"op,site,calls,wall_s,modeled_s,bytes,avg_bytes,min_bytes,max_bytes"); err != nil {
		return err
	}
	for _, s := range sites {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.9f,%.9f,%d,%.1f,%d,%d\n",
			s.Op, s.Site, s.Count, s.Wall, s.Modeled, s.Bytes, s.AvgBytes(), s.MinBytes, s.MaxBytes); err != nil {
			return err
		}
	}
	return nil
}
