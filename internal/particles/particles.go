// Package particles implements Lagrangian point-particle tracking — the
// multiphase extension on CMT-nek's roadmap that the paper's Section VII
// says will be added to CMT-bone ("complete multiphase coupling ...
// lagrangian point particle tracking ... will be added"). It supplies the
// two pieces the conceptual model of Section III reserves for the
// dispersed phase:
//
//   - particles advected by the fluid through a Stokes-drag law, with
//     spectral (Lagrange-basis) interpolation of the fluid velocity at
//     off-grid particle positions;
//   - the source term R of the conservation law: the drag reaction
//     deposited back onto the grid (two-way coupling);
//
// plus the communication pattern they introduce: particle migration
// between ranks as positions cross partition boundaries.
package particles

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/sem"
	"repro/internal/solver"
)

// Particle is one point particle: position and velocity in physical
// coordinates, plus an identity that survives migration.
type Particle struct {
	ID  int64
	Pos [3]float64
	Vel [3]float64
}

// floatsPerParticle is the wire size of one particle (id + pos + vel).
const floatsPerParticle = 7

// DragLaw selects the particle drag model.
type DragLaw int

// Drag models.
const (
	// StokesDrag is the linear law dv/dt = (u - v)/Tau, valid for
	// vanishing particle Reynolds number.
	StokesDrag DragLaw = iota
	// SchillerNaumann applies the standard finite-Reynolds correction
	// f = 1 + 0.15 Re_p^0.687 (Re_p < ~1000), the workhorse drag law of
	// particle-laden flow solvers.
	SchillerNaumann
)

// String implements fmt.Stringer.
func (d DragLaw) String() string {
	switch d {
	case StokesDrag:
		return "stokes"
	case SchillerNaumann:
		return "schiller-naumann"
	}
	return fmt.Sprintf("DragLaw(%d)", int(d))
}

// Config tunes the dispersed phase.
type Config struct {
	// Tau is the particle response time of the Stokes drag law
	// dv/dt = (u_fluid - v)/Tau. Smaller means tighter coupling.
	Tau float64
	// MassLoading scales the reaction force deposited per particle in
	// the two-way coupling source; zero disables deposition (one-way).
	MassLoading float64
	// Drag selects the drag model (default StokesDrag).
	Drag DragLaw
	// Diameter is the particle diameter used by finite-Reynolds drag
	// corrections (required for SchillerNaumann).
	Diameter float64
	// FluidMu is the fluid dynamic viscosity entering the particle
	// Reynolds number (required for SchillerNaumann).
	FluidMu float64
}

// Cloud is one rank's share of the particle population, bound to a
// CMT-bone solver instance.
type Cloud struct {
	Cfg  Config
	s    *solver.Solver
	rank *comm.Rank

	parts []Particle

	// origins maps particle ID to its dispersion reference position
	// (set by MarkOrigins; globally replicated so migration does not
	// lose it).
	origins map[int64][3]float64

	// domain extents (elements are unit cubes)
	lx, ly, lz float64
}

// New creates an empty cloud bound to the solver s.
func New(s *solver.Solver, cfg Config) (*Cloud, error) {
	if cfg.Tau <= 0 {
		return nil, fmt.Errorf("particles: Tau must be positive, got %g", cfg.Tau)
	}
	if cfg.Drag == SchillerNaumann && (cfg.Diameter <= 0 || cfg.FluidMu <= 0) {
		return nil, fmt.Errorf("particles: Schiller-Naumann drag needs Diameter and FluidMu > 0")
	}
	eg := s.Cfg.ElemGrid
	return &Cloud{
		Cfg: cfg, s: s, rank: s.Rank,
		lx: float64(eg[0]), ly: float64(eg[1]), lz: float64(eg[2]),
	}, nil
}

// Count returns the local particle count.
func (c *Cloud) Count() int { return len(c.parts) }

// Particles returns the local particles (shared slice; do not mutate
// positions directly — use Step).
func (c *Cloud) Particles() []Particle { return c.parts }

// SetParticles replaces the local population (checkpoint restore). The
// caller is responsible for every particle lying in this rank's
// subdomain; Migrate can repair ownership afterwards if needed.
func (c *Cloud) SetParticles(ps []Particle) {
	c.parts = append(c.parts[:0], ps...)
}

// GlobalCount returns the total particle count across ranks (collective).
func (c *Cloud) GlobalCount() int64 {
	c.rank.SetSite("particle_count")
	out := c.rank.AllreduceInts(comm.OpSum, []int64{int64(len(c.parts))})
	c.rank.SetSite("")
	return out[0]
}

// Seed scatters n particles per rank uniformly over this rank's
// subdomain, at rest, with globally unique ids. Deterministic for a given
// seed. Under a non-uniform element ownership the subdomain is no longer
// a box, so particles land in a uniformly chosen owned element instead.
func (c *Cloud) Seed(n int, seed int64) {
	rng := rand.New(rand.NewSource(seed + int64(c.rank.ID())*7919))
	l := c.s.Local
	if l.Own == nil {
		per := l.Elems
		base := [3]float64{float64(l.First[0]), float64(l.First[1]), float64(l.First[2])}
		ext := [3]float64{float64(per[0]), float64(per[1]), float64(per[2])}
		for i := 0; i < n; i++ {
			c.parts = append(c.parts, Particle{
				ID: int64(c.rank.ID())*1e9 + int64(i),
				Pos: [3]float64{
					base[0] + rng.Float64()*ext[0],
					base[1] + rng.Float64()*ext[1],
					base[2] + rng.Float64()*ext[2],
				},
			})
		}
		return
	}
	if l.Nel == 0 {
		return
	}
	for i := 0; i < n; i++ {
		g := l.GlobalElemCoords(rng.Intn(l.Nel))
		c.parts = append(c.parts, Particle{
			ID: int64(c.rank.ID())*1e9 + int64(i),
			Pos: [3]float64{
				float64(g[0]) + rng.Float64(),
				float64(g[1]) + rng.Float64(),
				float64(g[2]) + rng.Float64(),
			},
		})
	}
}

// elemOf normalizes position p into the domain (wrapping periodic
// directions in place) and returns the global coordinates of the element
// containing it; ok is false when the position is outside a non-periodic
// domain.
func (c *Cloud) elemOf(p *[3]float64) (g [3]int, ok bool) {
	box := c.s.Local.Box
	ext := [3]float64{c.lx, c.ly, c.lz}
	for d := 0; d < 3; d++ {
		if box.Periodic[d] {
			v := math.Mod(p[d], ext[d])
			if v < 0 {
				v += ext[d]
			}
			p[d] = v
		} else if p[d] < 0 || p[d] >= ext[d] {
			return g, false
		}
		g[d] = int(p[d])
		if g[d] >= box.ElemGrid[d] {
			g[d] = box.ElemGrid[d] - 1
		}
	}
	return g, true
}

// owner returns the rank owning position p under the solver's current
// element ownership (the uniform box split until a rebalance migrates
// elements), wrapping periodic directions; ok is false when the position
// is outside a non-periodic domain (the particle is considered to have
// left and is dropped).
func (c *Cloud) owner(p *[3]float64) (int, bool) {
	g, ok := c.elemOf(p)
	if !ok {
		return -1, false
	}
	return c.s.Ownership().Owner(c.s.Local.Box.GlobalElemID(g)), true
}

// CountsPerElem returns the number of local particles inside each local
// element — the particle-density feed of the load balancer's cost model.
func (c *Cloud) CountsPerElem() []int {
	l := c.s.Local
	counts := make([]int, l.Nel)
	for i := range c.parts {
		pos := c.parts[i].Pos
		g, ok := c.elemOf(&pos)
		if !ok {
			continue
		}
		if e, mine := l.LocalElemAt(g); mine {
			counts[e]++
		}
	}
	return counts
}

// FluidVelocityAt interpolates the fluid velocity of the bound solver at
// physical position p, which must lie in this rank's subdomain.
func (c *Cloud) FluidVelocityAt(p [3]float64) [3]float64 {
	l := c.s.Local
	n := c.s.Cfg.N
	// Element and reference coordinates (unit-cube elements).
	var ge [3]int
	var xi [3]float64
	for d := 0; d < 3; d++ {
		e := int(p[d])
		if e >= l.Box.ElemGrid[d] {
			e = l.Box.ElemGrid[d] - 1
		}
		ge[d] = e
		xi[d] = 2*(p[d]-float64(e)) - 1
	}
	le := [3]int{ge[0] - l.First[0], ge[1] - l.First[1], ge[2] - l.First[2]}
	for d := 0; d < 3; d++ {
		if le[d] < 0 || le[d] >= l.Elems[d] {
			panic(fmt.Sprintf("particles: position %v not on rank %d", p, c.rank.ID()))
		}
	}
	elem := l.ElemIndex(le[0], le[1], le[2])
	wi := sem.LagrangeWeights(c.s.Ref.X, xi[0])
	wj := sem.LagrangeWeights(c.s.Ref.X, xi[1])
	wk := sem.LagrangeWeights(c.s.Ref.X, xi[2])

	n3 := n * n * n
	baseIdx := elem * n3
	var mom [3]float64
	rho := 0.0
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			wjk := wj[j] * wk[k]
			row := baseIdx + n*j + n*n*k
			for i := 0; i < n; i++ {
				w := wi[i] * wjk
				rho += w * c.s.U[solver.IRho][row+i]
				mom[0] += w * c.s.U[solver.IMomX][row+i]
				mom[1] += w * c.s.U[solver.IMomY][row+i]
				mom[2] += w * c.s.U[solver.IMomZ][row+i]
			}
		}
	}
	inv := 1 / rho
	return [3]float64{mom[0] * inv, mom[1] * inv, mom[2] * inv}
}

// Step advances every particle by dt (forward Euler on the Stokes drag
// law, then advection), deposits the two-way coupling source when
// MassLoading > 0, and migrates particles that left the rank's subdomain.
// Collective.
func (c *Cloud) Step(dt float64) {
	reg := c.s.Rec.Region("particle_update", obs.CatKernel)
	if c.Cfg.MassLoading > 0 {
		c.s.EnableSource()
		c.s.ZeroSource()
	}
	for i := range c.parts {
		p := &c.parts[i]
		uf := c.FluidVelocityAt(p.Pos)
		f := c.dragFactor(p, &uf)
		var drag [3]float64
		for d := 0; d < 3; d++ {
			drag[d] = f * (uf[d] - p.Vel[d]) / c.Cfg.Tau
			p.Vel[d] += dt * drag[d]
			p.Pos[d] += dt * p.Vel[d]
		}
		if c.Cfg.MassLoading > 0 {
			c.deposit(p, drag)
		}
	}
	reg.End()
	c.Migrate()
}

// dragFactor returns the drag-law multiplier on the Stokes response:
// 1 for Stokes, the Schiller-Naumann correction otherwise. The fluid
// density at the particle is approximated by the background value 1
// (density variations enter at higher order in Re_p).
func (c *Cloud) dragFactor(p *Particle, uf *[3]float64) float64 {
	if c.Cfg.Drag != SchillerNaumann {
		return 1
	}
	slip := math.Sqrt(
		(uf[0]-p.Vel[0])*(uf[0]-p.Vel[0]) +
			(uf[1]-p.Vel[1])*(uf[1]-p.Vel[1]) +
			(uf[2]-p.Vel[2])*(uf[2]-p.Vel[2]))
	rep := slip * c.Cfg.Diameter / c.Cfg.FluidMu
	return 1 + 0.15*math.Pow(rep, 0.687)
}

// deposit adds the drag reaction (Newton's third law: the fluid feels
// -drag per unit particle mass) to the nearest grid node, scaled into a
// nodal source density by the diagonal mass matrix.
func (c *Cloud) deposit(p *Particle, drag [3]float64) {
	l := c.s.Local
	n := c.s.Cfg.N
	ref := c.s.Ref
	var ge [3]int
	var nearest [3]int
	for d := 0; d < 3; d++ {
		e := int(p.Pos[d])
		if e >= l.Box.ElemGrid[d] {
			e = l.Box.ElemGrid[d] - 1
		}
		ge[d] = e
		xi := 2*(p.Pos[d]-float64(e)) - 1
		best, bestDist := 0, math.Inf(1)
		for i, x := range ref.X {
			if dd := math.Abs(x - xi); dd < bestDist {
				best, bestDist = i, dd
			}
		}
		nearest[d] = best
	}
	le := [3]int{ge[0] - l.First[0], ge[1] - l.First[1], ge[2] - l.First[2]}
	elem := l.ElemIndex(le[0], le[1], le[2])
	n3 := n * n * n
	idx := elem*n3 + nearest[0] + n*nearest[1] + n*n*nearest[2]
	// Nodal mass: w_i w_j w_k (h/2)^3 with h = 1.
	mass := ref.W[nearest[0]] * ref.W[nearest[1]] * ref.W[nearest[2]] / 8
	scale := c.Cfg.MassLoading / mass
	c.s.Source[solver.IMomX][idx] -= scale * drag[0]
	c.s.Source[solver.IMomY][idx] -= scale * drag[1]
	c.s.Source[solver.IMomZ][idx] -= scale * drag[2]
	// Energy exchange: work done by the drag on the fluid.
	c.s.Source[solver.IEnergy][idx] -= scale *
		(drag[0]*p.Vel[0] + drag[1]*p.Vel[1] + drag[2]*p.Vel[2])
}

// Migrate routes particles whose positions left this rank's subdomain to
// their new owners, using a generalized all-to-all (the communication
// pattern particle tracking adds to the mini-app). Particles outside a
// non-periodic domain are dropped. Collective.
func (c *Cloud) Migrate() {
	c.rank.SetSite("particle_migrate")
	defer c.rank.SetSite("")
	p := c.rank.Size()
	keep := c.parts[:0]
	outbound := make(map[int][]Particle)
	for _, pt := range c.parts {
		dst, ok := c.owner(&pt.Pos)
		if !ok {
			continue // left the domain
		}
		if dst == c.rank.ID() {
			keep = append(keep, pt)
		} else {
			outbound[dst] = append(outbound[dst], pt)
		}
	}
	c.parts = keep

	counts := make([]int, p)
	var payload []float64
	for dst := 0; dst < p; dst++ {
		pts := outbound[dst]
		counts[dst] = len(pts) * floatsPerParticle
		for _, pt := range pts {
			payload = append(payload,
				float64(pt.ID),
				pt.Pos[0], pt.Pos[1], pt.Pos[2],
				pt.Vel[0], pt.Vel[1], pt.Vel[2])
		}
	}
	recv, _ := c.rank.Alltoallv(payload, counts)
	for i := 0; i+floatsPerParticle <= len(recv); i += floatsPerParticle {
		c.parts = append(c.parts, Particle{
			ID:  int64(recv[i]),
			Pos: [3]float64{recv[i+1], recv[i+2], recv[i+3]},
			Vel: [3]float64{recv[i+4], recv[i+5], recv[i+6]},
		})
	}
}

// MeanSpeed returns the global mean particle speed (collective);
// convenient for tests and examples tracking the dispersed phase.
func (c *Cloud) MeanSpeed() float64 {
	sum := 0.0
	for _, pt := range c.parts {
		sum += math.Sqrt(pt.Vel[0]*pt.Vel[0] + pt.Vel[1]*pt.Vel[1] + pt.Vel[2]*pt.Vel[2])
	}
	c.rank.SetSite("particle_stats")
	out := c.rank.Allreduce(comm.OpSum, []float64{sum, float64(len(c.parts))})
	c.rank.SetSite("")
	if out[1] == 0 {
		return 0
	}
	return out[0] / out[1]
}
