package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
)

//go:embed golden/*.json
var goldenFS embed.FS

// goldenFile holds the final state of a problem's rounds at the default
// seed, keyed by the round's total step count (warm-up + timed).
type goldenFile struct {
	Seed   int64            `json:"seed"`
	Rounds map[string]final `json:"rounds"`
}

func loadGolden(name string) (goldenFile, error) {
	var g goldenFile
	b, err := goldenFS.ReadFile("golden/" + name + ".json")
	if err != nil {
		return g, fmt.Errorf("golden: %w", err)
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("golden %s: %w", name, err)
	}
	return g, nil
}

// checker judges every round of one invocation and keeps the failure
// ledger: steps attempted, steps failed, and why.
type checker struct {
	w         workload
	seed      int64
	golden    goldenFile
	seen      map[int]final // first final per total step count, this invocation
	reference map[int]final // in-process finals a TCP workload must equal
	attempted int
	failed    int
	problems  []string
}

func newChecker(w workload, seed int64) (*checker, error) {
	g, err := loadGolden(w.Golden)
	if err != nil {
		return nil, err
	}
	return &checker{w: w, seed: seed, golden: g, seen: map[int]final{}, reference: map[int]final{}}, nil
}

func (c *checker) correct() bool { return len(c.problems) == 0 }

// round books one round. A round that did not complete, or whose final
// check fails, fails all of its steps.
func (c *checker) round(ctx context.Context, spec roundSpec, out *roundOut, err error) bool {
	total := spec.Warmup + spec.Steps
	c.attempted += total
	if err == nil {
		err = c.verify(ctx, spec, out)
	}
	if err != nil {
		c.failed += total
		c.problems = append(c.problems, err.Error())
		return false
	}
	return true
}

func (c *checker) verify(ctx context.Context, spec roundSpec, out *roundOut) error {
	total := spec.Warmup + spec.Steps
	f := out.Ranks[0].Final
	for _, r := range out.Ranks {
		if r.BadSteps > 0 {
			return fmt.Errorf("%s: rank %d: %d steps with a non-finite or non-positive dt", spec.Workload, r.Rank, r.BadSteps)
		}
		if !r.Final.equal(f) {
			return fmt.Errorf("%s: ranks disagree on the final state: %+v vs %+v", spec.Workload, f, r.Final)
		}
	}
	if !f.finite() {
		return fmt.Errorf("%s: non-finite final state %+v", spec.Workload, f)
	}
	if drift := math.Abs(f.Mass-f.Mass0) / math.Abs(f.Mass0); drift > massTol {
		return fmt.Errorf("%s: mass drifted by %.3g relative (limit %.0e)", spec.Workload, drift, massTol)
	}
	// Bit-identity under every execution option is the repository's
	// core invariant: rounds of one length must agree whatever their
	// mode (plain, traced, obs) ...
	if first, ok := c.seen[total]; !ok {
		c.seen[total] = f
	} else if !f.equal(first) {
		return fmt.Errorf("%s: %d-step round did not repeat: %+v then %+v", spec.Workload, total, first, f)
	}
	// ... equal the committed golden at the seed it was recorded with ...
	if g, ok := c.golden.Rounds[strconv.Itoa(total)]; ok && c.seed == c.golden.Seed && !f.equal(g) {
		return fmt.Errorf("%s: %d-step round differs from golden %s: got %+v want %+v",
			spec.Workload, total, c.w.Golden, f, g)
	}
	// ... and be the same on either transport.
	if spec.TCP {
		ref, ok := c.reference[total]
		if !ok {
			inproc := spec
			inproc.TCP, inproc.Mode, inproc.Probes = false, modePlain, ""
			ro, err := runRound(ctx, inproc)
			if err != nil {
				return fmt.Errorf("in-process reference: %w", err)
			}
			ref = ro.Ranks[0].Final
			c.reference[total] = ref
		}
		if !f.equal(ref) {
			return fmt.Errorf("%s: tcp round differs from the in-process run: %+v vs %+v", spec.Workload, f, ref)
		}
	}
	return nil
}

// updateGolden re-records every golden file at the default seed, for
// each problem's full round and for the short round the tests use.
func updateGolden(ctx context.Context) error {
	for _, w := range workloads {
		if w.Golden != w.Name {
			continue
		}
		g := goldenFile{Seed: defaultSeed, Rounds: map[string]final{}}
		for _, spec := range []roundSpec{fullRound(w, defaultSeed), shortRound(w, defaultSeed)} {
			out, err := runRound(ctx, spec)
			if err != nil {
				return err
			}
			g.Rounds[strconv.Itoa(spec.Warmup+spec.Steps)] = out.Ranks[0].Final
		}
		if err := writeJSON(filepath.Join("benchmark", "golden", w.Name+".json"), g); err != nil {
			return err
		}
	}
	return nil
}
