package fault

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/solver"
)

// After a recovery the survivors run on a shrunken communicator with
// dense ids 0..n-1, but their trace spans and flow arrows must stay on
// the tracks of their ORIGINAL world ranks — otherwise the timeline of
// world rank 3 silently continues on the track of a different (and
// still live) rank after the shrink, which misattributes every
// post-recovery event. This pins the world-rank stamping end to end:
// tracer spans, comm flows, and the Perfetto export's track metadata.
func TestTraceTracksKeepWorldRanksAfterShrink(t *testing.T) {
	const np, steps, crashStep, ckptEvery, deadRank = 4, 10, 6, 3, 2
	cfg := solver.DefaultConfig(np, 5, 2)
	dir := t.TempDir()
	spec := &Spec{
		Seed:    7,
		Crashes: []CrashSpec{{Rank: deadRank, Step: crashStep}},
	}
	tel := obs.NewTracer()
	cfg.Obs = tel
	opts := cfg.CommOptions(netmodel.QDR)
	opts.Faults = NewInjector(spec, np, nil)
	opts.Tracer = obs.NewCommTracer(tel, nil)

	stats, err := comm.Run(np, opts, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		rn, err := NewRunner(s, Config{
			Spec: spec, Store: checkpoint.Dir(dir), CkptEvery: ckptEvery, HeartbeatEvery: 1,
		})
		if err != nil {
			return err
		}
		defer rn.Close()
		_, err = rn.Run(0, steps, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Killed) != 1 || stats.Killed[0] != deadRank {
		t.Fatalf("Stats.Killed = %v, want [%d]", stats.Killed, deadRank)
	}

	// The recovery protocol's own span marks the shrink point.
	spans := tel.Spans()
	recoveryEnd := 0.0
	for _, s := range spans {
		if s.Name == "recovery" && s.VTEnd > recoveryEnd {
			recoveryEnd = s.VTEnd
		}
	}
	if recoveryEnd == 0 {
		t.Fatal("no recovery span recorded")
	}

	// Post-shrink, world rank 3 holds dense id 2. If dense ids leaked
	// into the trace, no span after the recovery would carry rank 3 and
	// the dead rank's track would keep accumulating someone else's work.
	postByRank := map[int]int{}
	for _, s := range spans {
		if s.Rank < 0 || s.Rank >= np {
			t.Fatalf("span %q on rank %d, outside the world [0,%d)", s.Name, s.Rank, np)
		}
		if s.VTStart > recoveryEnd {
			postByRank[s.Rank]++
		}
	}
	if postByRank[np-1] == 0 {
		t.Fatalf("no post-recovery spans on world rank %d — dense ids leaked into the trace (post counts: %v)",
			np-1, postByRank)
	}
	if postByRank[deadRank] != 0 {
		t.Fatalf("dead world rank %d has %d spans after the recovery", deadRank, postByRank[deadRank])
	}
	for _, f := range tel.Flows() {
		if f.Src < 0 || f.Src >= np || f.Dst < 0 || f.Dst >= np {
			t.Fatalf("flow %d->%d outside the world [0,%d)", f.Src, f.Dst, np)
		}
		if f.SendVT > recoveryEnd && (f.Src == deadRank || f.Dst == deadRank) {
			t.Fatalf("post-recovery flow %d->%d touches the dead rank", f.Src, f.Dst)
		}
	}

	// The export's track metadata must name every world rank that
	// appears, and no event may land on a track outside the world.
	var buf bytes.Buffer
	if err := tel.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if v, ok := ev.Args["name"].(string); ok {
				tracks[v] = true
			}
			continue
		}
		if ev.Tid < 0 || ev.Tid >= np {
			t.Fatalf("event %q on tid %d, outside the world [0,%d)", ev.Name, ev.Tid, np)
		}
	}
	for _, want := range []string{"rank 0000", "rank 0003"} {
		if !tracks[want] {
			t.Fatalf("export missing track %q (have %s)", want, strings.Join(keys(tracks), ", "))
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
