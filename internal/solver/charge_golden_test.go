package solver

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sem"
)

// testdata/charge_golden.json pins what the model charges a step and
// where each charge lands: the virtual extent of every kernel span, the
// per-phase split of every rank's clock and the profiler's call counts,
// inviscid and viscous+dealias, blocking and overlapped, Optimized and
// Basic. It was recorded with each pass billing itself by hand (the
// volume charges per run, the gradient and surface flux charged in one
// place and reported in another), before one schedule replaced them.
// The spans of one name are listed in virtual-time order, so the order
// the recorder was told about them is free; their bits are not. Delete
// the file to re-record (the recording run fails, so a missing golden
// never passes).
const chargeGoldenPath = "testdata/charge_golden.json"

type chargeGolden struct {
	// Spans[rank][name] digests every kernel span of that name, in
	// virtual-time order: the count, the first and last extents as
	// "VTStart-VTEnd" Float64bits in hex, and an FNV-1a hash over the
	// bits of all of them. (Listed in full, the overlap rows' per-run
	// spans make the file some 600 KB.)
	Spans []map[string]string `json:"spans"`
	// Phases[rank][phase] is that rank's modeled compute/wait/send split.
	Phases []map[string]netmodel.PhaseSplit `json:"phases"`
	// Calls[rank][region] is the profiler's call count.
	Calls []map[string]int64 `json:"calls"`
}

func runChargeGolden(t *testing.T, viscous, overlap bool, variant sem.KernelVariant, workers int) chargeGolden {
	t.Helper()
	const np, steps = 2, 1
	// Three elements per direction per rank: the middle layer has no
	// remote face, so Overlap gets interior and boundary runs.
	cfg := DefaultConfig(np, 5, 3)
	cfg.Workers = workers
	cfg.Overlap = overlap
	cfg.Variant = variant
	cfg.Obs = obs.NewTracer()
	if viscous {
		cfg.Mu = 0.01
		cfg.Dealias = true
	}
	out := chargeGolden{
		Spans:  make([]map[string]string, np),
		Phases: make([]map[string]netmodel.PhaseSplit, np),
		Calls:  make([]map[string]int64, np),
	}
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(GaussianPulse(1.5, 1.5, 1.5, 0.1, 0.5))
		s.Run(steps)
		out.Phases[r.ID()] = r.Clock().PhaseSplits()
		calls := map[string]int64{}
		for _, reg := range s.Rec.Flat() {
			calls[reg.Name] = reg.Calls
		}
		out.Calls[r.ID()] = calls
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := make([]map[string][][2]uint64, np)
	for i := range byName {
		byName[i] = map[string][][2]uint64{}
	}
	for _, sp := range cfg.Obs.Spans() {
		if sp.Cat == obs.CatKernel {
			m := byName[sp.Rank]
			m[sp.Name] = append(m[sp.Name], [2]uint64{math.Float64bits(sp.VTStart), math.Float64bits(sp.VTEnd)})
		}
	}
	for rank, m := range byName {
		out.Spans[rank] = map[string]string{}
		for name, ext := range m {
			sort.Slice(ext, func(i, j int) bool {
				a, b := ext[i], ext[j]
				fa, fb := math.Float64frombits(a[0]), math.Float64frombits(b[0])
				if fa != fb {
					return fa < fb
				}
				return math.Float64frombits(a[1]) < math.Float64frombits(b[1])
			})
			h := fnv.New64a()
			for _, e := range ext {
				h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, e[0]), e[1]))
			}
			first, last := ext[0], ext[len(ext)-1]
			out.Spans[rank][name] = fmt.Sprintf("n=%d first=%016x-%016x last=%016x-%016x fnv=%016x",
				len(ext), first[0], first[1], last[0], last[1], h.Sum64())
		}
	}
	return out
}

// TestChargeGolden holds every kernel span's virtual extent, every
// rank's phase split and the region call counts to the recorded bytes
// across {inviscid, viscous+dealias} × {blocking, overlap} × {Optimized,
// Basic}, at pool widths 1 and 3.
func TestChargeGolden(t *testing.T) {
	type row struct {
		viscous, overlap bool
		variant          sem.KernelVariant
	}
	rows := map[string]row{}
	var keys []string
	for _, viscous := range []bool{false, true} {
		for _, overlap := range []bool{false, true} {
			for _, variant := range []sem.KernelVariant{sem.Optimized, sem.Basic} {
				key := fmt.Sprintf("viscous=%v/overlap=%v/%v", viscous, overlap, variant)
				keys, rows[key] = append(keys, key), row{viscous, overlap, variant}
			}
		}
	}
	holdToGolden(t, chargeGoldenPath, keys, func(key string, workers int) any {
		r := rows[key]
		return runChargeGolden(t, r.viscous, r.overlap, r.variant, workers)
	})
}
