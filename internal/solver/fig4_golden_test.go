package solver

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// testdata/fig4_golden.json was recorded when every Solver carried a
// profiler of its own (Start/stop pairs and Add feeds beside the
// tracer's spans): the merged flat profile's region names and call
// counts and the call graph's (parent, child, calls) arcs — Figure 4
// without its wall times. The region recorder that replaced the profiler
// must report the same rows and arcs. Delete the file to re-record (the
// recording run fails, so a missing golden never passes).
const fig4GoldenPath = "testdata/fig4_golden.json"

type fig4Golden struct {
	Calls map[string]int64 `json:"calls"` // region -> calls, all ranks
	Arcs  map[string]int64 `json:"arcs"`  // "parent -> child" -> calls, all ranks
}

func runFig4Golden(t *testing.T, viscous, overlap bool, workers int) fig4Golden {
	t.Helper()
	const np, steps = 2, 2
	cfg := DefaultConfig(np, 5, 3)
	cfg.Workers = workers
	cfg.Overlap = overlap
	if viscous {
		cfg.Mu = 0.01
		cfg.Dealias = true
	}
	recs := make([]*obs.RankTracer, np)
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(GaussianPulse(1.5, 1.5, 1.5, 0.1, 0.5))
		s.Run(steps)
		recs[r.ID()] = s.Rec
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := fig4Golden{Calls: map[string]int64{}, Arcs: map[string]int64{}}
	p := obs.Merge(recs...)
	for _, reg := range p.Flat {
		out.Calls[reg.Name] = reg.Calls
	}
	for _, e := range p.Edges {
		out.Arcs[e.Parent+" -> "+e.Child] = e.Calls
	}
	return out
}

// TestFig4Golden holds Figure 4's rows, call counts and call-graph arcs
// — inviscid and viscous+dealias, blocking and overlapped, np=2 N=5, at
// pool widths 1 and 3 — to the bytes recorded before the recorder merge.
func TestFig4Golden(t *testing.T) {
	type row struct{ viscous, overlap bool }
	rows := map[string]row{}
	var keys []string
	for _, overlap := range []bool{false, true} {
		for _, viscous := range []bool{false, true} {
			key := fmt.Sprintf("viscous=%v/overlap=%v", viscous, overlap)
			keys, rows[key] = append(keys, key), row{viscous, overlap}
		}
	}
	holdToGolden(t, fig4GoldenPath, keys, func(key string, workers int) any {
		return runFig4Golden(t, rows[key].viscous, rows[key].overlap, workers)
	})
}
