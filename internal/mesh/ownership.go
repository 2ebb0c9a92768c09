package mesh

// Ownership generalizes the static box split: an explicit map from every
// global element to its owning rank. The dynamic load balancer produces
// these maps from measured per-element costs; the mesh derives Local
// views, face adjacency, and the gather-scatter numberings from them,
// so the rest of the mini-app is agnostic to how elements landed where.
//
// The canonical local ordering on every rank is ascending global element
// id. For the uniform box split this coincides exactly with the existing
// x-fastest local ordering, so uniform Ownership partitions are
// drop-in-identical to Box.Partition views.

import "fmt"

// Ownership is an immutable global element -> rank assignment, shared
// (read-only) by every rank of a run. All ranks must construct it from
// identical inputs.
type Ownership struct {
	box      *Box
	owner    []int32 // global elem id -> owning rank
	localIdx []int32 // global elem id -> local index on its owner
	elems    [][]int64
}

// NewOwnership validates and indexes an element->rank map. owner[gid]
// is the rank owning the element with global id gid (x-fastest
// linearization); its length must equal the box's total element count.
// Ranks may own zero elements.
func NewOwnership(b *Box, owner []int) (*Ownership, error) {
	if len(owner) != b.TotalElems() {
		return nil, fmt.Errorf("mesh: ownership covers %d elements, box has %d", len(owner), b.TotalElems())
	}
	o := &Ownership{
		box:      b,
		owner:    make([]int32, len(owner)),
		localIdx: make([]int32, len(owner)),
		elems:    make([][]int64, b.Ranks()),
	}
	counts := make([]int, b.Ranks())
	for gid, r := range owner {
		if r < 0 || r >= b.Ranks() {
			return nil, fmt.Errorf("mesh: element %d owned by rank %d outside [0,%d)", gid, r, b.Ranks())
		}
		o.owner[gid] = int32(r)
		counts[r]++
	}
	for r := range o.elems {
		o.elems[r] = make([]int64, 0, counts[r])
	}
	// Ascending gid scan yields each rank's elements already in canonical
	// (ascending-gid) local order.
	for gid := range owner {
		r := o.owner[gid]
		o.localIdx[gid] = int32(len(o.elems[r]))
		o.elems[r] = append(o.elems[r], int64(gid))
	}
	return o, nil
}

// UniformOwnership returns the static box split as an explicit map: the
// partition Box.Partition describes implicitly.
func (b *Box) UniformOwnership() *Ownership {
	owner := make([]int, b.TotalElems())
	eg := b.ElemGrid
	for gz := 0; gz < eg[2]; gz++ {
		for gy := 0; gy < eg[1]; gy++ {
			for gx := 0; gx < eg[0]; gx++ {
				g := [3]int{gx, gy, gz}
				owner[b.GlobalElemID(g)] = b.OwnerOfElem(g)
			}
		}
	}
	o, err := NewOwnership(b, owner)
	if err != nil {
		panic(err) // unreachable: the box split is always valid
	}
	return o
}

// Box returns the global domain the ownership partitions.
func (o *Ownership) Box() *Box { return o.box }

// Owner returns the rank owning the element with global id gid.
func (o *Ownership) Owner(gid int64) int { return int(o.owner[gid]) }

// LocalIndex returns the local element index of gid on its owning rank
// (the canonical ascending-gid position).
func (o *Ownership) LocalIndex(gid int64) int { return int(o.localIdx[gid]) }

// Count returns how many elements rank owns.
func (o *Ownership) Count(rank int) int { return len(o.elems[rank]) }

// Elements returns rank's global element ids in canonical (ascending)
// order. The slice is shared; do not mutate.
func (o *Ownership) Elements(rank int) []int64 { return o.elems[rank] }

// MaxCount returns the largest per-rank element count (the element-count
// imbalance numerator).
func (o *Ownership) MaxCount() int {
	max := 0
	for _, e := range o.elems {
		if len(e) > max {
			max = len(e)
		}
	}
	return max
}

// Equal reports whether two ownerships assign every element identically.
func (o *Ownership) Equal(p *Ownership) bool {
	if len(o.owner) != len(p.owner) {
		return false
	}
	for i, r := range o.owner {
		if r != p.owner[i] {
			return false
		}
	}
	return true
}

// IsUniform reports whether the map coincides with the static box split.
func (o *Ownership) IsUniform() bool {
	eg := o.box.ElemGrid
	for gz := 0; gz < eg[2]; gz++ {
		for gy := 0; gy < eg[1]; gy++ {
			for gx := 0; gx < eg[0]; gx++ {
				g := [3]int{gx, gy, gz}
				if int(o.owner[o.box.GlobalElemID(g)]) != o.box.OwnerOfElem(g) {
					return false
				}
			}
		}
	}
	return true
}

// elemCoordsOf inverts GlobalElemID.
func (b *Box) elemCoordsOf(gid int64) [3]int {
	nx, ny := int64(b.ElemGrid[0]), int64(b.ElemGrid[1])
	return [3]int{int(gid % nx), int((gid / nx) % ny), int(gid / (nx * ny))}
}

// Partition returns rank's local view under this ownership. Local
// elements are ordered by ascending global id (the canonical order); for
// a uniform ownership this matches Box.Partition element for element.
func (o *Ownership) Partition(rank int) *Local {
	if rank < 0 || rank >= o.box.Ranks() {
		panic(fmt.Sprintf("mesh: rank %d outside [0,%d)", rank, o.box.Ranks()))
	}
	gids := o.elems[rank]
	globals := make([][3]int, len(gids))
	for i, gid := range gids {
		globals[i] = o.box.elemCoordsOf(gid)
	}
	l := &Local{
		Box:     o.box,
		Rank:    rank,
		Nel:     len(gids),
		Own:     o,
		gids:    gids,
		globals: globals,
	}
	if len(globals) > 0 {
		l.First = globals[0]
	}
	return l
}
