package mesh

import (
	"math/rand"
	"testing"
)

func testBox(t *testing.T) *Box {
	t.Helper()
	b, err := NewBox([3]int{2, 2, 1}, [3]int{4, 4, 2}, 4, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomOwnership builds a deterministic arbitrary element->rank map
// with every rank owning at least one element.
func randomOwnership(t *testing.T, b *Box, seed int64) *Ownership {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	owner := make([]int, b.TotalElems())
	for i := range owner {
		owner[i] = rng.Intn(b.Ranks())
	}
	// Guarantee non-empty ranks so every Partition is exercised.
	for r := 0; r < b.Ranks(); r++ {
		owner[r] = r
	}
	o, err := NewOwnership(b, owner)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOwnershipRoundtrip(t *testing.T) {
	b := testBox(t)
	o := randomOwnership(t, b, 7)

	total := 0
	for r := 0; r < b.Ranks(); r++ {
		l := o.Partition(r)
		if l.Nel != o.Count(r) {
			t.Fatalf("rank %d: Nel %d != Count %d", r, l.Nel, o.Count(r))
		}
		total += l.Nel
		prev := int64(-1)
		for e := 0; e < l.Nel; e++ {
			gid := l.GID(e)
			if gid <= prev {
				t.Fatalf("rank %d: gids not ascending at %d: %d after %d", r, e, gid, prev)
			}
			prev = gid
			if o.Owner(gid) != r {
				t.Fatalf("rank %d enumerates element %d owned by %d", r, gid, o.Owner(gid))
			}
			if o.LocalIndex(gid) != e {
				t.Fatalf("LocalIndex(%d) = %d, want %d", gid, o.LocalIndex(gid), e)
			}
			g := l.GlobalElemCoords(e)
			if b.GlobalElemID(g) != gid {
				t.Fatalf("coords %v linearize to %d, want %d", g, b.GlobalElemID(g), gid)
			}
			if idx, ok := l.LocalElemAt(g); !ok || idx != e {
				t.Fatalf("LocalElemAt(%v) = %d,%v want %d,true", g, idx, ok, e)
			}
		}
	}
	if total != b.TotalElems() {
		t.Fatalf("partitions cover %d elements, box has %d", total, b.TotalElems())
	}
}

func TestOwnershipRejectsBadInput(t *testing.T) {
	b := testBox(t)
	if _, err := NewOwnership(b, make([]int, 3)); err == nil {
		t.Error("short owner map accepted")
	}
	bad := make([]int, b.TotalElems())
	bad[5] = b.Ranks()
	if _, err := NewOwnership(b, bad); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

// TestUniformOwnershipMatchesBoxPartition pins the canonical-order
// contract: the explicit uniform map yields element-for-element the same
// local views as the implicit box split, so switching a run from
// Box.Partition to Ownership.Partition changes nothing.
func TestUniformOwnershipMatchesBoxPartition(t *testing.T) {
	b := testBox(t)
	o := b.UniformOwnership()
	if !o.IsUniform() {
		t.Fatal("uniform ownership not recognized as uniform")
	}
	for r := 0; r < b.Ranks(); r++ {
		lu, lo := b.Partition(r), o.Partition(r)
		if lu.Nel != lo.Nel {
			t.Fatalf("rank %d: Nel %d vs %d", r, lu.Nel, lo.Nel)
		}
		for e := 0; e < lu.Nel; e++ {
			if lu.GlobalElemCoords(e) != lo.GlobalElemCoords(e) {
				t.Fatalf("rank %d elem %d: coords %v vs %v", r, e,
					lu.GlobalElemCoords(e), lo.GlobalElemCoords(e))
			}
			for f := 0; f < 6; f++ {
				nu, oku := lu.FaceNeighbor(e, f)
				no, oko := lo.FaceNeighbor(e, f)
				if oku != oko || nu != no {
					t.Fatalf("rank %d elem %d face %d: %v,%v vs %v,%v", r, e, f, nu, oku, no, oko)
				}
			}
		}
		du, do := lu.DGFaceIDs(), lo.DGFaceIDs()
		for i := range du {
			if du[i] != do[i] {
				t.Fatalf("rank %d: DG face id %d differs: %d vs %d", r, i, du[i], do[i])
			}
		}
	}
}

// TestFaceNeighborSymmetryUnderOwnership checks adjacency consistency on
// an arbitrary map: crossing a face and crossing back returns the
// original element, with rank/index agreeing with the ownership tables.
func TestFaceNeighborSymmetryUnderOwnership(t *testing.T) {
	b := testBox(t)
	o := randomOwnership(t, b, 23)
	locals := make([]*Local, b.Ranks())
	for r := range locals {
		locals[r] = o.Partition(r)
	}
	for r, l := range locals {
		for e := 0; e < l.Nel; e++ {
			for f := 0; f < 6; f++ {
				nb, ok := l.FaceNeighbor(e, f)
				if !ok {
					t.Fatalf("periodic box must have all neighbors (rank %d elem %d face %d)", r, e, f)
				}
				back, ok := locals[nb.Rank].FaceNeighbor(nb.Elem, f^1)
				if !ok || back.Rank != r || back.Elem != e {
					t.Fatalf("rank %d elem %d face %d: neighbor %+v round-trips to %+v,%v",
						r, e, f, nb, back, ok)
				}
			}
		}
	}
}

// TestDGFaceIDsConsistentUnderOwnership checks that the gather-scatter
// numbering is partition-independent: every face-point id appears exactly
// twice globally (fully periodic box), under uniform and arbitrary maps
// alike.
func TestDGFaceIDsConsistentUnderOwnership(t *testing.T) {
	b := testBox(t)
	for name, o := range map[string]*Ownership{
		"uniform": b.UniformOwnership(),
		"random":  randomOwnership(t, b, 31),
	} {
		count := map[int64]int{}
		for r := 0; r < b.Ranks(); r++ {
			for _, id := range o.Partition(r).DGFaceIDs() {
				count[id]++
			}
		}
		for id, c := range count {
			if c != 2 {
				t.Fatalf("%s: face-point id %d appears %d times, want 2", name, id, c)
			}
		}
	}
}

func TestOwnershipMaxCount(t *testing.T) {
	b := testBox(t)
	owner := make([]int, b.TotalElems())
	// Rank 0 owns everything except one element per other rank.
	for r := 1; r < b.Ranks(); r++ {
		owner[r] = r
	}
	o, err := NewOwnership(b, owner)
	if err != nil {
		t.Fatal(err)
	}
	want := b.TotalElems() - (b.Ranks() - 1)
	if o.MaxCount() != want {
		t.Fatalf("MaxCount = %d, want %d", o.MaxCount(), want)
	}
}
