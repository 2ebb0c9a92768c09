package critpath

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netmodel"
	"repro/internal/obs"
)

// CellSplit is one (rank, phase) attribution row in serializable form.
type CellSplit struct {
	Rank      int     `json:"rank"`
	Phase     string  `json:"phase"`
	Compute   float64 `json:"compute"`
	Wait      float64 `json:"wait"`
	Comm      float64 `json:"comm"`
	Untracked float64 `json:"untracked,omitempty"`
}

// Total returns the row's total seconds.
func (c CellSplit) Total() float64 { return c.Compute + c.Wait + c.Comm + c.Untracked }

// EdgeGroup aggregates the path's wire edges by endpoint pair, phase
// and call site.
type EdgeGroup struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Phase string  `json:"phase"`
	Site  string  `json:"site,omitempty"`
	Count int     `json:"count"`
	Wait  float64 `json:"wait"`
	Bytes int64   `json:"bytes"`
}

// RankSlack is one rank's finishing slack in serializable form.
type RankSlack struct {
	Rank  int     `json:"rank"`
	Slack float64 `json:"slack"`
}

// LinkHot is one fabric link of a congestion replay in serializable
// form: how much traffic it carried and how long flows queued behind it.
type LinkHot struct {
	Name  string  `json:"name"`
	Class string  `json:"class"`
	Flows int     `json:"flows"`
	Bytes int64   `json:"bytes"`
	Busy  float64 `json:"busy"`
	Queue float64 `json:"queue"`
}

// Summary is the JSON-stable digest of an Analysis: everything benchdiff
// needs to compare two runs and blame a regression, without the full
// segment chain.
type Summary struct {
	Domain   string      `json:"domain"`
	Makespan float64     `json:"makespan"`
	CritRank int         `json:"crit_rank"`
	Cells    []CellSplit `json:"cells"`
	Edges    []EdgeGroup `json:"edges,omitempty"`
	Slack    []RankSlack `json:"slack,omitempty"`
	// ReplayQueue and CongestedLinks are present when the run's wire
	// flows were replayed through a modeled fabric topology
	// (netmodel.Topology.ReplayCongestion): the total queueing delay and
	// the most-queued links, worst first.
	ReplayQueue    float64   `json:"replay_queue,omitempty"`
	CongestedLinks []LinkHot `json:"congested_links,omitempty"`
}

// AttachCongestion folds a fabric congestion replay into the summary:
// the total queueing delay plus the topK most-queued links (the replay
// orders them worst-first already).
func (s *Summary) AttachCongestion(r netmodel.Replay, topK int) {
	s.ReplayQueue = r.QueueTotal
	s.CongestedLinks = s.CongestedLinks[:0]
	for i, l := range r.Links {
		if topK > 0 && i >= topK {
			break
		}
		s.CongestedLinks = append(s.CongestedLinks, LinkHot{
			Name: l.Name, Class: l.Class.String(),
			Flows: l.Flows, Bytes: l.Bytes, Busy: l.Busy, Queue: l.Queue,
		})
	}
}

// WireFlows converts traced wire messages into the flow records a
// topology congestion replay consumes.
func WireFlows(flows []obs.Flow) []netmodel.Flow {
	out := make([]netmodel.Flow, len(flows))
	for i, f := range flows {
		out[i] = netmodel.Flow{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes, Start: f.SendVT}
	}
	return out
}

// Summary digests the analysis: cells sorted by (rank, phase), edges
// aggregated by (src, dst, phase, site) descending by wait, slack by
// rank.
func (a *Analysis) Summary() Summary {
	s := Summary{Domain: a.Domain.String(), Makespan: a.Makespan, CritRank: a.CritRank}
	for c, sp := range a.Cells {
		s.Cells = append(s.Cells, CellSplit{
			Rank: c.Rank, Phase: c.Phase,
			Compute: sp.Compute, Wait: sp.Wait, Comm: sp.Comm, Untracked: sp.Untracked,
		})
	}
	sort.Slice(s.Cells, func(i, j int) bool {
		if s.Cells[i].Rank != s.Cells[j].Rank {
			return s.Cells[i].Rank < s.Cells[j].Rank
		}
		return s.Cells[i].Phase < s.Cells[j].Phase
	})
	type gk struct {
		src, dst    int
		phase, site string
	}
	groups := make(map[gk]*EdgeGroup)
	for _, e := range a.Edges {
		k := gk{e.Src, e.Dst, e.Phase, e.Site}
		g := groups[k]
		if g == nil {
			g = &EdgeGroup{Src: e.Src, Dst: e.Dst, Phase: e.Phase, Site: e.Site}
			groups[k] = g
		}
		g.Count++
		g.Wait += e.Wait
		g.Bytes += e.Bytes
	}
	for _, g := range groups {
		s.Edges = append(s.Edges, *g)
	}
	sort.Slice(s.Edges, func(i, j int) bool {
		if s.Edges[i].Wait != s.Edges[j].Wait {
			return s.Edges[i].Wait > s.Edges[j].Wait
		}
		if s.Edges[i].Src != s.Edges[j].Src {
			return s.Edges[i].Src < s.Edges[j].Src
		}
		if s.Edges[i].Dst != s.Edges[j].Dst {
			return s.Edges[i].Dst < s.Edges[j].Dst
		}
		if s.Edges[i].Phase != s.Edges[j].Phase {
			return s.Edges[i].Phase < s.Edges[j].Phase
		}
		return s.Edges[i].Site < s.Edges[j].Site
	})
	for r, sl := range a.Slack {
		s.Slack = append(s.Slack, RankSlack{Rank: r, Slack: sl})
	}
	sort.Slice(s.Slack, func(i, j int) bool { return s.Slack[i].Rank < s.Slack[j].Rank })
	return s
}

// byPhase folds a summary's cells over ranks.
func (s Summary) byPhase() map[string]CellSplit {
	out := make(map[string]CellSplit)
	for _, c := range s.Cells {
		t := out[c.Phase]
		t.Phase = c.Phase
		t.Compute += c.Compute
		t.Wait += c.Wait
		t.Comm += c.Comm
		t.Untracked += c.Untracked
		out[c.Phase] = t
	}
	return out
}

func secs(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1e-3:
		return fmt.Sprintf("%.1fus", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2fms", v*1e3)
	default:
		return fmt.Sprintf("%.3fs", v)
	}
}

// Format renders the analysis as a human-readable report: the makespan
// decomposition by phase, the per-rank table, the top-k wire edges and
// the per-rank slack.
func (a *Analysis) Format(topK int) string { return a.Summary().Format(topK) }

// Format renders a summary (possibly loaded from a baseline file) as
// the same human-readable report.
func (s Summary) Format(topK int) string {
	var b strings.Builder
	var tot CellSplit
	byRank := make(map[int]CellSplit)
	for _, c := range s.Cells {
		tot.Compute += c.Compute
		tot.Wait += c.Wait
		tot.Comm += c.Comm
		tot.Untracked += c.Untracked
		r := byRank[c.Rank]
		r.Compute += c.Compute
		r.Wait += c.Wait
		r.Comm += c.Comm
		r.Untracked += c.Untracked
		byRank[c.Rank] = r
	}
	fmt.Fprintf(&b, "critical path (%s time): makespan %s, finishes on rank %d\n",
		s.Domain, secs(s.Makespan), s.CritRank)
	fmt.Fprintf(&b, "  compute %s (%.1f%%)  wait %s (%.1f%%)  comm %s (%.1f%%)",
		secs(tot.Compute), pct(tot.Compute, s.Makespan),
		secs(tot.Wait), pct(tot.Wait, s.Makespan),
		secs(tot.Comm), pct(tot.Comm, s.Makespan))
	if tot.Untracked > 0 {
		fmt.Fprintf(&b, "  untracked %s (%.1f%%)", secs(tot.Untracked), pct(tot.Untracked, s.Makespan))
	}
	b.WriteString("\n\nby phase:\n")
	byPhase := s.byPhase()
	for _, ph := range phaseOrder(byPhase) {
		c := byPhase[ph]
		fmt.Fprintf(&b, "  %-12s total %8s  compute %8s  wait %8s  comm %8s\n",
			ph, secs(c.Total()), secs(c.Compute), secs(c.Wait), secs(c.Comm))
	}
	b.WriteString("\nby rank (path share · slack):\n")
	slack := make(map[int]float64, len(s.Slack))
	ranks := make([]int, 0, len(s.Slack))
	for _, rs := range s.Slack {
		slack[rs.Rank] = rs.Slack
		ranks = append(ranks, rs.Rank)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		c := byRank[r]
		fmt.Fprintf(&b, "  rank %-3d on-path %8s (%.1f%%)  slack %s\n",
			r, secs(c.Total()), pct(c.Total(), s.Makespan), secs(slack[r]))
	}
	if topK > 0 && len(s.Edges) > 0 {
		fmt.Fprintf(&b, "\ntop wire edges on the path (aggregated by endpoint and site):\n")
		edges := s.Edges
		if topK < len(edges) {
			edges = edges[:topK]
		}
		for _, e := range edges {
			site := e.Site
			if site == "" {
				site = "?"
			}
			fmt.Fprintf(&b, "  rank %d -> rank %d  %-12s site %-12s wait %8s  %4d msgs  %d B\n",
				e.Src, e.Dst, e.Phase, site, secs(e.Wait), e.Count, e.Bytes)
		}
	}
	if len(s.CongestedLinks) > 0 {
		fmt.Fprintf(&b, "\nmost congested fabric links (replayed; total queueing %s):\n", secs(s.ReplayQueue))
		links := s.CongestedLinks
		if topK > 0 && topK < len(links) {
			links = links[:topK]
		}
		for _, l := range links {
			fmt.Fprintf(&b, "  %-24s %-6s queue %8s  busy %8s  %5d flows  %d B\n",
				l.Name, l.Class, secs(l.Queue), secs(l.Busy), l.Flows, l.Bytes)
		}
	}
	return b.String()
}

func pct(x, of float64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * x / of
}

// phaseOrder returns the map's phases in canonical reporting order,
// unknown ones appended alphabetically.
func phaseOrder(m map[string]CellSplit) []string {
	known := map[string]bool{}
	var out []string
	for _, p := range []string{"rhs", "gs-exchange", "rk", "reduce", "rebalance", "recovery", "other"} {
		if _, ok := m[p]; ok {
			out = append(out, p)
			known[p] = true
		}
	}
	var rest []string
	for p := range m {
		if !known[p] {
			rest = append(rest, p)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// BlameLine is one ranked cause in a critical-path blame diff.
type BlameLine struct {
	// Text is the human-readable cause, e.g.
	// "wait on rank 3 gs-exchange grew 18.3% (+1.2ms)".
	Text string
	// Growth is the absolute seconds the bucket grew by.
	Growth float64
}

// Blame compares two summaries of the same scenario and returns the
// top-k (rank, phase, kind) buckets whose path time grew, largest
// absolute growth first — the "why did this regress" lines benchdiff
// prints under a failing comparison.
func Blame(base, cur Summary, k int) []BlameLine {
	type bucket struct {
		rank  int
		phase string
		kind  Kind
	}
	delta := make(map[bucket]float64)
	baseVal := make(map[bucket]float64)
	acc := func(s Summary, sign float64) {
		for _, c := range s.Cells {
			for _, kv := range []struct {
				k Kind
				v float64
			}{{KindCompute, c.Compute}, {KindWait, c.Wait}, {KindComm, c.Comm}, {KindUntracked, c.Untracked}} {
				if kv.v == 0 {
					continue
				}
				b := bucket{c.Rank, c.Phase, kv.k}
				delta[b] += sign * kv.v
				if sign < 0 {
					baseVal[b] += kv.v
				}
			}
		}
	}
	acc(base, -1)
	acc(cur, +1)
	var lines []BlameLine
	// A link whose replayed queueing grew is a congestion cause in its
	// own right — surface it alongside the (rank, phase) buckets.
	baseQueue := make(map[string]float64, len(base.CongestedLinks))
	for _, l := range base.CongestedLinks {
		baseQueue[l.Name] = l.Queue
	}
	for _, l := range cur.CongestedLinks {
		d := l.Queue - baseQueue[l.Name]
		if d <= 0 {
			continue
		}
		var txt string
		if bv := baseQueue[l.Name]; bv > 0 {
			txt = fmt.Sprintf("queueing on link %s (%s) grew %.1f%% (+%s)",
				l.Name, l.Class, 100*d/bv, secs(d))
		} else {
			txt = fmt.Sprintf("queueing on link %s (%s) appeared (+%s)", l.Name, l.Class, secs(d))
		}
		lines = append(lines, BlameLine{Text: txt, Growth: d})
	}
	for b, d := range delta {
		if d <= 0 {
			continue
		}
		var txt string
		verb := string(b.kind)
		if b.kind == KindWait {
			verb = "wait"
		}
		if bv := baseVal[b]; bv > 0 {
			txt = fmt.Sprintf("%s on rank %d %s grew %.1f%% (+%s)",
				verb, b.rank, b.phase, 100*d/bv, secs(d))
		} else {
			txt = fmt.Sprintf("%s on rank %d %s appeared (+%s)", verb, b.rank, b.phase, secs(d))
		}
		lines = append(lines, BlameLine{Text: txt, Growth: d})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].Growth != lines[j].Growth {
			return lines[i].Growth > lines[j].Growth
		}
		return lines[i].Text < lines[j].Text
	})
	if k > 0 && len(lines) > k {
		lines = lines[:k]
	}
	return lines
}
