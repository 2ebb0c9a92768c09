package comm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/netmodel"
)

// -print-collective-golden prints the collectiveTraceGolden table the
// current code produces, for recording it after a deliberate change of
// the collectives' wire traffic.
var printCollectiveGolden = flag.Bool("print-collective-golden", false, "print TestCollectiveTraceGolden's hash table")

// goldenTracer keeps each source rank's wire events in the order that
// rank sent them: per-source order is deterministic, global order is not.
type goldenTracer struct {
	mu    sync.Mutex
	bySrc map[int][]TraceEvent
}

func (g *goldenTracer) Record(e TraceEvent) {
	g.mu.Lock()
	g.bySrc[e.Src] = append(g.bySrc[e.Src], e)
	g.mu.Unlock()
}

// goldenRec accumulates the bits of one rank's collective results.
type goldenRec []uint64

func (g *goldenRec) floats(v []float64) {
	*g = append(*g, uint64(len(v)))
	if v == nil {
		*g = append(*g, math.MaxUint64)
	}
	for _, x := range v {
		*g = append(*g, math.Float64bits(x))
	}
}

func (g *goldenRec) ints(v []int64) {
	*g = append(*g, uint64(len(v)))
	if v == nil {
		*g = append(*g, math.MaxUint64)
	}
	for _, x := range v {
		*g = append(*g, uint64(x))
	}
}

// goldenConfig is one communicator layout the cases run on.
type goldenConfig struct {
	name string
	p    int
	opts func() Options
}

// goldenTopo is an 8-rank two-leaf fat-tree with 2 ranks per node, so
// flat collectives declare 2 concurrent flows per node and the route
// prices differ within a node, within a leaf and across leaves.
func goldenTopo() *netmodel.Topology {
	topo, err := netmodel.FatTree(netmodel.FatTreeConfig{
		RanksPerNode: 2, NodesPerLeaf: 2, Leaves: 2, Oversub: 2,
		IntraAlpha: 2.5e-7, IntraBeta: 8e-11,
		LinkAlpha: 6.5e-7, LinkBeta: 3.1e-10,
		SpineAlpha: 5e-7,
	})
	if err != nil {
		panic(err)
	}
	return topo
}

func goldenConfigs() []goldenConfig {
	var cs []goldenConfig
	grids := map[int][3]int{1: {1, 1, 1}, 2: {2, 1, 1}, 3: {3, 1, 1}, 5: {5, 1, 1}, 8: {2, 2, 2}}
	topoModel := func() netmodel.Model {
		m := netmodel.QDR
		m.Topo = goldenTopo()
		return m
	}
	for _, p := range []int{1, 2, 3, 5, 8} {
		grid := grids[p]
		cs = append(cs,
			goldenConfig{fmt.Sprintf("grid/p=%d", p), p, func() Options {
				return Options{Model: netmodel.QDR, Grid: grid, Periodic: [3]bool{true, false, true}}
			}},
			goldenConfig{fmt.Sprintf("topo/p=%d", p), p, func() Options {
				return Options{Model: topoModel()}
			}})
	}
	irregular := []int{1, 0, 1, 2, 0, 2, 1} // nodes {1,4}, {0,2,6}, {3,5}
	cs = append(cs,
		goldenConfig{"hier/block8x4", 8, func() Options {
			return Options{Model: topoModel(), Hierarchy: BlockHierarchy(8, 4)}
		}},
		goldenConfig{"hier/block6x3", 6, func() Options {
			return Options{Model: topoModel(), Hierarchy: BlockHierarchy(6, 3)}
		}},
		goldenConfig{"hier/irregular7", 7, func() Options {
			h, err := NewHierarchy(irregular)
			if err != nil {
				panic(err)
			}
			return Options{Model: topoModel(), Hierarchy: h}
		}})
	return cs
}

// goldenCase is one collective workload; it appends the bits of every
// result it gets to rec.
type goldenCase struct {
	name string
	run  func(r *Rank, rec *goldenRec)
}

func goldenCounts(id, p int) []int {
	counts := make([]int, p)
	for q := range counts {
		counts[q] = (id+2*q)%3 + q%2
	}
	return counts
}

func goldenInts(id, n int, salt int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(id+1)*1000003 + int64(i)*7919 + salt
	}
	return out
}

// goldenGroupOps runs every Group collective, from every root for Bcast.
func goldenGroupOps(g *Group, rec *goldenRec) {
	g.Barrier()
	for root := 0; root < g.Size(); root++ {
		var in []float64
		if g.ID() == root {
			in = collProbe(100+root, 3, 0x51)
		}
		rec.floats(g.Bcast(root, in))
	}
	rec.floats(g.Allreduce(OpSum, collProbe(g.r.ID(), 3, 0x52)))
	rec.floats(g.Allreduce(OpMax, collProbe(g.r.ID(), 5, 0x53)))
	rec.floats(g.Allgather(collProbe(g.r.ID(), 2, 0x54)))
	g.Barrier()
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"barrier", func(r *Rank, rec *goldenRec) { r.Barrier(); r.Barrier() }},
		{"bcast", func(r *Rank, rec *goldenRec) {
			for root := 0; root < r.Size(); root++ {
				var in []float64
				var ins []int64
				if r.ID() == root {
					in = collProbe(50+root, 3, 0x11)
					ins = goldenInts(root, 2, 5)
				}
				rec.floats(r.Bcast(root, in))
				rec.ints(r.BcastInts(root, ins))
			}
		}},
		{"reduce-root0", func(r *Rank, rec *goldenRec) {
			rec.floats(r.Reduce(OpSum, 0, collProbe(r.ID(), 4, 0x21)))
		}},
		{"reduce-root2", func(r *Rank, rec *goldenRec) {
			rec.floats(r.Reduce(OpSum, 2%r.Size(), collProbe(r.ID(), 4, 0x22)))
		}},
		{"allreduce-3", func(r *Rank, rec *goldenRec) {
			rec.floats(r.Allreduce(OpSum, collProbe(r.ID(), 3, 0x31)))
			rec.floats(r.Allreduce(OpMax, collProbe(r.ID(), 3, 0x32)))
		}},
		{"allreduce-rabenseifner", func(r *Rank, rec *goldenRec) {
			rec.floats(r.Allreduce(OpSum, collProbe(r.ID(), rabenseifnerMinLen, 0x33)))
		}},
		{"allreduce-ints", func(r *Rank, rec *goldenRec) {
			rec.ints(r.AllreduceInts(OpSum, goldenInts(r.ID(), 3, 1)))
			rec.ints(r.AllreduceInts(OpMin, goldenInts(r.ID(), 2, -9)))
		}},
		{"gather-scatter", func(r *Rank, rec *goldenRec) {
			p := r.Size()
			for _, root := range []int{0, p - 1} {
				rec.floats(r.Gather(root, collProbe(r.ID(), 3, 0x41)))
				var send []float64
				if r.ID() == root {
					send = collProbe(root, 2*p, 0x42)
				}
				rec.floats(r.Scatter(root, send, 2))
			}
		}},
		{"allgather", func(r *Rank, rec *goldenRec) {
			rec.floats(r.Allgather(collProbe(r.ID(), 3, 0x61)))
			rec.ints(r.AllgatherInts(int64(r.ID()*r.ID() + 7)))
		}},
		{"alltoall", func(r *Rank, rec *goldenRec) {
			p := r.Size()
			rec.floats(r.Alltoall(collProbe(r.ID(), 2*p, 0x71), 2))
			counts := goldenCounts(r.ID(), p)
			total := 0
			for _, c := range counts {
				total += c
			}
			recv, rc := r.Alltoallv(collProbe(r.ID(), total, 0x72), counts)
			rec.floats(recv)
			rec.ints(intsOf(rc))
			irecv, irc := r.AlltoallvInts(goldenInts(r.ID(), total, 3), counts)
			rec.ints(irecv)
			rec.ints(intsOf(irc))
		}},
		{"split-reversed", func(r *Rank, rec *goldenRec) {
			g := r.Split(0, r.Size()-r.ID())
			rec.ints(intsOf(g.Members()))
			goldenGroupOps(g, rec)
		}},
		{"split-parity", func(r *Rank, rec *goldenRec) {
			g := r.Split(r.ID()%2, -r.ID())
			rec.ints(intsOf(g.Members()))
			goldenGroupOps(g, rec)
		}},
	}
}

func intsOf(v []int) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(x)
	}
	return out
}

// goldenHash runs one case on one configuration and hashes each source
// rank's ordered wire events, each rank's final clock, the bits of every
// result and each rank's profile rows.
func goldenHash(t *testing.T, cfg goldenConfig, c goldenCase) string {
	t.Helper()
	tr := &goldenTracer{bySrc: map[int][]TraceEvent{}}
	opts := cfg.opts()
	opts.Tracer = tr
	recs := make([]goldenRec, cfg.p)
	stats, err := Run(cfg.p, opts, func(r *Rank) error {
		// Skew the clocks so arrival order and waits depend on who
		// talks to whom when.
		r.Clock().Advance(float64(r.ID()%3) * 1e-6)
		c.run(r, &recs[r.ID()])
		return nil
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.name, c.name, err)
	}
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for id := 0; id < cfg.p; id++ {
		evs := tr.bySrc[id]
		put(uint64(len(evs)))
		for _, e := range evs {
			put(uint64(e.Src))
			put(uint64(e.Dst))
			put(uint64(e.Tag))
			put(uint64(e.Bytes))
			put(uint64(e.Hops))
			put(math.Float64bits(e.SendVT))
			put(math.Float64bits(e.ArriveVT))
		}
		put(math.Float64bits(stats.VirtualTimes[id]))
		put(uint64(len(recs[id])))
		for _, v := range recs[id] {
			put(v)
		}
		calls := stats.Profiles[id].Calls()
		sort.Slice(calls, func(i, j int) bool {
			if calls[i].Op != calls[j].Op {
				return calls[i].Op < calls[j].Op
			}
			return calls[i].Site < calls[j].Site
		})
		put(uint64(len(calls)))
		for _, cs := range calls {
			h.Write([]byte(cs.Op))
			put(uint64(cs.Count))
			put(math.Float64bits(cs.Modeled))
			put(uint64(cs.Bytes))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestCollectiveTraceGolden pins every collective's wire traffic (each
// source's ordered messages: peer, tag, bytes, hops and the bits of the
// send and arrival times), every rank's final clock, the bits of every
// result and every profile row, flat on a grid and on a topology at p in
// {1,2,3,5,8}, and hierarchical on two block layouts and an irregular
// node map. The hashes were recorded before the collectives were
// rewritten over shared member-list trees; a change of any of them means
// a rank's messages changed, which no refactor of the algorithms may do.
func TestCollectiveTraceGolden(t *testing.T) {
	var printed []string
	for _, cfg := range goldenConfigs() {
		for _, c := range goldenCases() {
			key := cfg.name + "/" + c.name
			got := goldenHash(t, cfg, c)
			printed = append(printed, fmt.Sprintf("\t%q: %q,", key, got))
			if *printCollectiveGolden {
				continue
			}
			want, ok := collectiveTraceGolden[key]
			switch {
			case !ok:
				t.Errorf("%s: no recorded hash (got %s)", key, got)
			case got != want:
				t.Errorf("%s: hash %s, recorded %s", key, got, want)
			}
		}
	}
	if *printCollectiveGolden {
		t.Logf("collectiveTraceGolden:\n%s", strings.Join(printed, "\n"))
	}
	if len(printed) != len(collectiveTraceGolden) && !*printCollectiveGolden {
		t.Errorf("%d cases ran, %d hashes recorded", len(printed), len(collectiveTraceGolden))
	}
}

// collectiveTraceGolden was recorded on the collectives as they stood
// before the member-list rewrite.
var collectiveTraceGolden = map[string]string{
	"grid/p=1/barrier":                       "79184a9a2aa93aa3",
	"grid/p=1/bcast":                         "d9772787fb248c1a",
	"grid/p=1/reduce-root0":                  "0fd819cc01dd0704",
	"grid/p=1/reduce-root2":                  "3c03057888d5e24c",
	"grid/p=1/allreduce-3":                   "2ceb03a614bdbe71",
	"grid/p=1/allreduce-rabenseifner":        "362d51769a61caf2",
	"grid/p=1/allreduce-ints":                "39475214327c9e69",
	"grid/p=1/gather-scatter":                "881ada7578b288a4",
	"grid/p=1/allgather":                     "35126fb5567bb277",
	"grid/p=1/alltoall":                      "8a87cb2316235db8",
	"grid/p=1/split-reversed":                "17aaa6645deb0957",
	"grid/p=1/split-parity":                  "17aaa6645deb0957",
	"topo/p=1/barrier":                       "79184a9a2aa93aa3",
	"topo/p=1/bcast":                         "d9772787fb248c1a",
	"topo/p=1/reduce-root0":                  "0fd819cc01dd0704",
	"topo/p=1/reduce-root2":                  "3c03057888d5e24c",
	"topo/p=1/allreduce-3":                   "2ceb03a614bdbe71",
	"topo/p=1/allreduce-rabenseifner":        "362d51769a61caf2",
	"topo/p=1/allreduce-ints":                "39475214327c9e69",
	"topo/p=1/gather-scatter":                "881ada7578b288a4",
	"topo/p=1/allgather":                     "35126fb5567bb277",
	"topo/p=1/alltoall":                      "8a87cb2316235db8",
	"topo/p=1/split-reversed":                "17aaa6645deb0957",
	"topo/p=1/split-parity":                  "17aaa6645deb0957",
	"grid/p=2/barrier":                       "f3839e08e8194f49",
	"grid/p=2/bcast":                         "ace062a29cf28378",
	"grid/p=2/reduce-root0":                  "6ba9bd5159c2924e",
	"grid/p=2/reduce-root2":                  "818b5be2b7c55820",
	"grid/p=2/allreduce-3":                   "a81a8dc05485f1c0",
	"grid/p=2/allreduce-rabenseifner":        "d6d70173da7882ad",
	"grid/p=2/allreduce-ints":                "0457491edd0ab4df",
	"grid/p=2/gather-scatter":                "3feb7d8c5fca8ccb",
	"grid/p=2/allgather":                     "019a612bd25088b7",
	"grid/p=2/alltoall":                      "c6aa0375a41123c0",
	"grid/p=2/split-reversed":                "04945c02ba6022a9",
	"grid/p=2/split-parity":                  "29fc3458089e0357",
	"topo/p=2/barrier":                       "8e30ff4310fd41f0",
	"topo/p=2/bcast":                         "a6697f49793967a9",
	"topo/p=2/reduce-root0":                  "85262fe091d5a9ed",
	"topo/p=2/reduce-root2":                  "eef65c7eac652bf1",
	"topo/p=2/allreduce-3":                   "4cc904b3c4b2f259",
	"topo/p=2/allreduce-rabenseifner":        "bfe3d79661afd2d0",
	"topo/p=2/allreduce-ints":                "0990b3d1f6bf92d1",
	"topo/p=2/gather-scatter":                "35eccd1ed622d72a",
	"topo/p=2/allgather":                     "d20dc3a0c09c921e",
	"topo/p=2/alltoall":                      "fefe1590e8d628c6",
	"topo/p=2/split-reversed":                "494713845ec8448d",
	"topo/p=2/split-parity":                  "f12266b9068b24d7",
	"grid/p=3/barrier":                       "ab247513d3bd8957",
	"grid/p=3/bcast":                         "0023cc7ed37bde20",
	"grid/p=3/reduce-root0":                  "974fb80e587e1f86",
	"grid/p=3/reduce-root2":                  "036a4014f0ab3b23",
	"grid/p=3/allreduce-3":                   "4902ccabac7bd83e",
	"grid/p=3/allreduce-rabenseifner":        "a500471de9ff935c",
	"grid/p=3/allreduce-ints":                "9fea6e8c86c6f34b",
	"grid/p=3/gather-scatter":                "4bb6477d3dbe3440",
	"grid/p=3/allgather":                     "98eae0237551f3ce",
	"grid/p=3/alltoall":                      "9ffecba74522fba7",
	"grid/p=3/split-reversed":                "69bee87ec8023f3d",
	"grid/p=3/split-parity":                  "3d1075a7f9d0edbb",
	"topo/p=3/barrier":                       "322b2060940fe410",
	"topo/p=3/bcast":                         "2d78119a1a656152",
	"topo/p=3/reduce-root0":                  "66107643a5c84f74",
	"topo/p=3/reduce-root2":                  "1103f63534554979",
	"topo/p=3/allreduce-3":                   "80f9183b8e065da2",
	"topo/p=3/allreduce-rabenseifner":        "b8f0ef52109994ef",
	"topo/p=3/allreduce-ints":                "2ac1bcd460f3b255",
	"topo/p=3/gather-scatter":                "bb4dc935fc887cfd",
	"topo/p=3/allgather":                     "f37550f3e1cd7cbc",
	"topo/p=3/alltoall":                      "1114f1a87a486609",
	"topo/p=3/split-reversed":                "8c7f6aace32959ac",
	"topo/p=3/split-parity":                  "0447d7433e2b385c",
	"grid/p=5/barrier":                       "b3f6e98015b1ee30",
	"grid/p=5/bcast":                         "a360985a02068105",
	"grid/p=5/reduce-root0":                  "bdff760e776a9334",
	"grid/p=5/reduce-root2":                  "67814c79fbdf1804",
	"grid/p=5/allreduce-3":                   "c09c46cd4f4372ab",
	"grid/p=5/allreduce-rabenseifner":        "7718c03853c5d7bd",
	"grid/p=5/allreduce-ints":                "f124cad3567fc7cb",
	"grid/p=5/gather-scatter":                "a31085760bdcadb6",
	"grid/p=5/allgather":                     "a0ec59ed497f3f04",
	"grid/p=5/alltoall":                      "2722adf6a65439ff",
	"grid/p=5/split-reversed":                "c51f7249d773ece9",
	"grid/p=5/split-parity":                  "6fdb3c33352e26b4",
	"topo/p=5/barrier":                       "113ca7e3c4fa3092",
	"topo/p=5/bcast":                         "ec1ce067f9e12739",
	"topo/p=5/reduce-root0":                  "147d72832c57bda9",
	"topo/p=5/reduce-root2":                  "113d7e5a27672878",
	"topo/p=5/allreduce-3":                   "a8e45260089d70d5",
	"topo/p=5/allreduce-rabenseifner":        "88d6fb53f0f0a5e1",
	"topo/p=5/allreduce-ints":                "646f34d2252c4ad8",
	"topo/p=5/gather-scatter":                "a163f55588435cd6",
	"topo/p=5/allgather":                     "50a0fbc07dcaec45",
	"topo/p=5/alltoall":                      "48b1a665d42c2d18",
	"topo/p=5/split-reversed":                "247a7f22837cef3d",
	"topo/p=5/split-parity":                  "2a88f8a9f71ae562",
	"grid/p=8/barrier":                       "6e266f83c34ee272",
	"grid/p=8/bcast":                         "4ce87c4729fdd52d",
	"grid/p=8/reduce-root0":                  "7f04abf063cc357d",
	"grid/p=8/reduce-root2":                  "269470503f799992",
	"grid/p=8/allreduce-3":                   "0a8f7e0f58874183",
	"grid/p=8/allreduce-rabenseifner":        "23e8ae06bdeadb07",
	"grid/p=8/allreduce-ints":                "a9b805a06cf4235e",
	"grid/p=8/gather-scatter":                "ab4a497c516984af",
	"grid/p=8/allgather":                     "68f3103728221e9d",
	"grid/p=8/alltoall":                      "a69975c0ec81f018",
	"grid/p=8/split-reversed":                "9c846961ac25f709",
	"grid/p=8/split-parity":                  "3fa6dabaa2248b9e",
	"topo/p=8/barrier":                       "f63688c7ad0d4b31",
	"topo/p=8/bcast":                         "481fd120c18c1514",
	"topo/p=8/reduce-root0":                  "757bd768c62cd8b1",
	"topo/p=8/reduce-root2":                  "0de27235ccd598b9",
	"topo/p=8/allreduce-3":                   "87e49bca72f680c1",
	"topo/p=8/allreduce-rabenseifner":        "e999dd976ba1a3ef",
	"topo/p=8/allreduce-ints":                "d1b3d4d1ceb3286d",
	"topo/p=8/gather-scatter":                "8ddb2b19db675c8e",
	"topo/p=8/allgather":                     "9784024734ba4af4",
	"topo/p=8/alltoall":                      "4157753c1336e5ac",
	"topo/p=8/split-reversed":                "1efa48d118ef4295",
	"topo/p=8/split-parity":                  "7d7add73c48930f8",
	"hier/block8x4/barrier":                  "a6465df28984e091",
	"hier/block8x4/bcast":                    "13302bff25aa573f",
	"hier/block8x4/reduce-root0":             "2996da662042a486",
	"hier/block8x4/reduce-root2":             "f22b6b41a724fc5a",
	"hier/block8x4/allreduce-3":              "b769c9fce91c2dbd",
	"hier/block8x4/allreduce-rabenseifner":   "de2e1ccbf2b4e0b0",
	"hier/block8x4/allreduce-ints":           "db676235d26c1082",
	"hier/block8x4/gather-scatter":           "aadc92a0ac1fe19d",
	"hier/block8x4/allgather":                "48810b5b0f58cb20",
	"hier/block8x4/alltoall":                 "f41e1761d904020e",
	"hier/block8x4/split-reversed":           "5f57aac776bb2d92",
	"hier/block8x4/split-parity":             "4b4220c7d185c06c",
	"hier/block6x3/barrier":                  "b197f7430f6a0095",
	"hier/block6x3/bcast":                    "1cf29eda45f33e90",
	"hier/block6x3/reduce-root0":             "e452e16f44f94b9b",
	"hier/block6x3/reduce-root2":             "4f5143bd4746e776",
	"hier/block6x3/allreduce-3":              "d810df9e0d9c20d3",
	"hier/block6x3/allreduce-rabenseifner":   "1758e6c4db320f64",
	"hier/block6x3/allreduce-ints":           "d8445d8b51706163",
	"hier/block6x3/gather-scatter":           "4b5bbced024571cb",
	"hier/block6x3/allgather":                "e8c588887ac7e505",
	"hier/block6x3/alltoall":                 "fba61fb2b3bbfa0e",
	"hier/block6x3/split-reversed":           "7a0a06acd51b4ac5",
	"hier/block6x3/split-parity":             "9debd189e748d331",
	"hier/irregular7/barrier":                "2945e2ca814ecc3d",
	"hier/irregular7/bcast":                  "f64eb7c4f961cc23",
	"hier/irregular7/reduce-root0":           "3683ce19943dc22f",
	"hier/irregular7/reduce-root2":           "f10aa0971cd8c813",
	"hier/irregular7/allreduce-3":            "220a28b2db3e2132",
	"hier/irregular7/allreduce-rabenseifner": "7324f396168c9107",
	"hier/irregular7/allreduce-ints":         "53ed0c7c13b18beb",
	"hier/irregular7/gather-scatter":         "68ff58dd241adf24",
	"hier/irregular7/allgather":              "e873b5941e56bcaf",
	"hier/irregular7/alltoall":               "e2b9fcc643851f6a",
	"hier/irregular7/split-reversed":         "0f8b9b5714d275c3",
	"hier/irregular7/split-parity":           "467283ff91883ba0",
}
