package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"
)

// The pointwise kernels of package solver: the loops around the
// derivative kernels that form primitives and fluxes, combine the
// divergence, correct the face fluxes and advance the Runge-Kutta stages.
// Each is listed once, in pointwiseKernels, as its streams (the slices it
// reads and writes, one value per point), its scalars and one expression
// tree per written stream; the Go loop and the AVX2 loop are both
// written from that entry.

// An expr is one node of a kernel's expression tree.
type expr struct {
	op   byte // 'l' stream load, 'k' scalar, '0' the constant +0, 'n' negation, or + - * /
	name string
	a, b *expr
}

func ld(stream string) *expr { return &expr{op: 'l', name: stream} }
func sc(scalar string) *expr { return &expr{op: 'k', name: scalar} }
func add(a, b *expr) *expr   { return &expr{op: '+', a: a, b: b} }
func sub(a, b *expr) *expr   { return &expr{op: '-', a: a, b: b} }
func mul(a, b *expr) *expr   { return &expr{op: '*', a: a, b: b} }
func div(a, b *expr) *expr   { return &expr{op: '/', a: a, b: b} }
func neg(a *expr) *expr      { return &expr{op: 'n', a: a} }

var zero = &expr{op: '0'}

// key is a node's structural identity. Every operation is deterministic,
// so nodes with equal keys hold equal bits and a kernel computes each
// once.
func (e *expr) key() string {
	switch e.op {
	case 'l', 'k':
		return string(e.op) + e.name
	case '0':
		return "0"
	case 'n':
		return "-(" + e.a.key() + ")"
	}
	return "(" + e.a.key() + string(e.op) + e.b.key() + ")"
}

// A pwKernel is one pointwise kernel. Every point is independent: a
// written stream may also be read (the kernel is then in place), and
// every tree sees the values the point held before the kernel ran.
type pwKernel struct {
	name    string
	doc     string     // what it computes, for the generated comments
	streams []string   // the slice arguments, in order
	params  []string   // float64 arguments the caller passes
	consts  []pwConst  // float64 arguments the generated wrapper passes
	outs    []pwOutput // the written streams, in store order
}

// A pwConst is a constant operand: a scalar argument whose value is a
// Go expression in package solver, so Go rounds it, once, exactly as the
// hand loops' constant expressions round.
type pwConst struct{ name, value string }

type pwOutput struct {
	stream string
	e      *expr
}

var (
	cOne  = pwConst{"one", "1"}
	cGm1  = pwConst{"gm1", "Gamma - 1"}
	cHalf = pwConst{"half", "0.5"}
)

// pointwiseKernels is the table. Every tree keeps the parenthesisation
// of the loop it replaces, so each kernel is bit-identical to it.
func pointwiseKernels() []pwKernel {
	var ks []pwKernel
	xyz := "XYZ"
	rho, en, pr := ld("rho"), ld("en"), ld("pr")
	m := [3]*expr{ld("mx"), ld("my"), ld("mz")}
	v := [3]*expr{ld("v0"), ld("v1"), ld("v2")}
	one, gm1, half := sc("one"), sc("gm1"), sc("half")
	// |m|^2 summed left to right, as the hand loops did.
	msq := func(f func(d int) *expr) *expr {
		return add(add(f(0), f(1)), f(2))
	}

	// volumeElem: the velocity and the pressure.
	inv := div(one, rho)
	var vel [3]*expr
	for d := range vel {
		vel[d] = mul(m[d], inv)
	}
	ks = append(ks, pwKernel{
		name:    "primitives",
		doc:     "the velocity v = m/rho and the ideal-gas pressure pr = (Gamma-1)(E - |m.v|/2)",
		streams: []string{"rho", "mx", "my", "mz", "en", "v0", "v1", "v2", "pr"},
		consts:  []pwConst{cOne, cGm1, cHalf},
		outs: []pwOutput{{"v0", vel[0]}, {"v1", vel[1]}, {"v2", vel[2]},
			{"pr", mul(gm1, sub(en, mul(half, msq(func(d int) *expr { return mul(m[d], vel[d]) }))))}},
	})

	// volumeElem: the energy flux, and the momentum fluxes with the
	// pressure on the normal component.
	h := add(en, pr)
	ks = append(ks, pwKernel{
		name:    "energyFlux",
		doc:     "the energy flux f_d = v_d (E + p)",
		streams: []string{"en", "pr", "v0", "v1", "v2", "f0", "f1", "f2"},
		outs:    []pwOutput{{"f0", mul(v[0], h)}, {"f1", mul(v[1], h)}, {"f2", mul(v[2], h)}},
	})
	u := ld("u")
	for dn := 0; dn < 3; dn++ {
		var outs []pwOutput
		for d := 0; d < 3; d++ {
			f := mul(u, v[d])
			if d == dn {
				f = add(f, pr)
			}
			outs = append(outs, pwOutput{fmt.Sprintf("f%d", d), f})
		}
		ks = append(ks, pwKernel{
			name:    "momentumFlux" + xyz[dn:dn+1],
			doc:     fmt.Sprintf("the flux f_d = u v_d (+ p for d = %d) of momentum component u", dn),
			streams: []string{"u", "v0", "v1", "v2", "pr", "f0", "f1", "f2"},
			outs:    outs,
		})
	}

	// volumeElem: the divergence, scaled by the constant metric and
	// negated, summed from +0.
	rx := sc("rx")
	ks = append(ks, pwKernel{
		name:    "divergence",
		doc:     "r = -(rx g0 + rx g1 + rx g2), summed from +0",
		streams: []string{"g0", "g1", "g2", "r"},
		params:  []string{"rx"},
		outs:    []pwOutput{{"r", neg(add(add(add(zero, mul(rx, ld("g0"))), mul(rx, ld("g1"))), mul(rx, ld("g2"))))}},
	})

	// postElems: the Runge-Kutta stages (SSP-RK3).
	dt, r, uu, u1 := sc("dt"), ld("r"), ld("u"), ld("u1")
	step := add(u1, mul(dt, r))
	ks = append(ks,
		pwKernel{
			name:    "rkStage1",
			doc:     "u1 = U + dt r",
			streams: []string{"u", "r", "u1"},
			params:  []string{"dt"},
			outs:    []pwOutput{{"u1", add(uu, mul(dt, r))}},
		},
		pwKernel{
			name:    "rkStage2",
			doc:     "u1 = 3/4 U + 1/4 (u1 + dt r), in place",
			streams: []string{"u", "r", "u1"},
			params:  []string{"dt"},
			consts:  []pwConst{{"c34", "0.75"}, {"c14", "0.25"}},
			outs:    []pwOutput{{"u1", add(mul(sc("c34"), uu), mul(sc("c14"), step))}},
		},
		pwKernel{
			name:    "rkStage3",
			doc:     "U = U/3 + 2/3 (u1 + dt r), in place",
			streams: []string{"u", "r", "u1"},
			params:  []string{"dt"},
			consts:  []pwConst{{"three", "3"}, {"twoThirds", "2.0 / 3.0"}},
			outs:    []pwOutput{{"u", add(div(uu, sc("three")), mul(sc("twoThirds"), step))}},
		})

	// liftElem: the Lax-Friedrichs correction (f - f*).n, scaled by the
	// lift factor, from the partner's traces or the exchanged sums.
	fc, uc := ld("fc"), ld("uc")
	scale, sign, lam := sc("scale"), sc("sign"), sc("lam")
	corr := func(fstar, ustar *expr) *expr {
		return mul(scale, sub(mul(sign, sub(fc, mul(half, fstar))), mul(lam, sub(uc, mul(half, ustar)))))
	}
	ks = append(ks,
		pwKernel{
			name:    "liftPair",
			doc:     "w = scale (sign (fc - (fc+fo)/2) - lam (uc - (uc+uo)/2)) for a face paired on the rank",
			streams: []string{"fc", "uc", "fo", "uo", "w"},
			params:  []string{"scale", "sign", "lam"},
			consts:  []pwConst{cHalf},
			outs:    []pwOutput{{"w", corr(add(fc, ld("fo")), add(uc, ld("uo")))}},
		},
		pwKernel{
			name:    "liftBoundary",
			doc:     "w = scale (sign (fc - fsum/2) - lam (uc - usum/2)) for a rank-boundary face",
			streams: []string{"fc", "uc", "fsum", "usum", "w"},
			params:  []string{"scale", "sign", "lam"},
			consts:  []pwConst{cHalf},
			outs:    []pwOutput{{"w", corr(ld("fsum"), ld("usum"))}},
		})

	// faceElems: the normal Euler flux on a face of direction d.
	p := mul(gm1, sub(en, div(mul(half, msq(func(d int) *expr { return mul(m[d], m[d]) })), rho)))
	for dn := 0; dn < 3; dn++ {
		vn := mul(m[dn], div(one, rho))
		outs := []pwOutput{{"f0", m[dn]}}
		for d := 0; d < 3; d++ {
			f := mul(m[d], vn)
			if d == dn {
				f = add(f, p)
			}
			outs = append(outs, pwOutput{fmt.Sprintf("f%d", 1+d), f})
		}
		outs = append(outs, pwOutput{"f4", mul(vn, add(en, p))})
		ks = append(ks, pwKernel{
			name:    "surfaceFlux" + xyz[dn:dn+1],
			doc:     fmt.Sprintf("the Euler flux along direction %d of the conserved state (rho, m, E), all five fields", dn),
			streams: []string{"rho", "mx", "my", "mz", "en", "f0", "f1", "f2", "f3", "f4"},
			consts:  []pwConst{cOne, cGm1, cHalf},
			outs:    outs,
		})
	}

	// elemGradients and subViscousFlux: the viscous terms.
	var g [3][3]*expr
	var gs []string
	for i := range g {
		for d := range g[i] {
			gs = append(gs, fmt.Sprintf("g%d%d", i, d))
			g[i][d] = ld(gs[len(gs)-1])
		}
	}
	mu := sc("mu")
	divv := add(add(g[0][0], g[1][1]), g[2][2])
	var stress []pwOutput
	for i := 0; i < 3; i++ {
		for d := i; d < 3; d++ {
			tau := mul(mu, add(g[i][d], g[d][i]))
			if i == d {
				tau = sub(tau, mul(sc("c23mu"), divv))
			}
			stress = append(stress, pwOutput{fmt.Sprintf("g%d%d", i, d), tau})
			if i != d {
				stress = append(stress, pwOutput{fmt.Sprintf("g%d%d", d, i), tau})
			}
		}
	}
	tv := [3]*expr{ld("t0"), ld("t1"), ld("t2")}
	work := add(add(add(zero, mul(v[0], tv[0])), mul(v[1], tv[1])), mul(v[2], tv[2]))
	f := ld("f")
	ks = append(ks,
		pwKernel{
			name:    "temperature",
			doc:     "the temperature T = p/rho (gas constant 1)",
			streams: []string{"pr", "rho", "t"},
			outs:    []pwOutput{{"t", div(pr, rho)}},
		},
		pwKernel{
			name:    "scaleBy",
			doc:     "x = x c, in place",
			streams: []string{"x"},
			params:  []string{"c"},
			outs:    []pwOutput{{"x", mul(ld("x"), sc("c"))}},
		},
		pwKernel{
			name:    "stress",
			doc:     "the Newtonian stress mu (g_id + g_di) - (2/3) mu div(v) delta_id over the velocity gradient g_id = dv_i/dx_d, in place",
			streams: gs,
			params:  []string{"mu", "c23mu"},
			outs:    stress,
		},
		pwKernel{
			name:    "subtractFlux",
			doc:     "f = f - tau, in place",
			streams: []string{"f", "tau"},
			outs:    []pwOutput{{"f", sub(f, ld("tau"))}},
		},
		pwKernel{
			name:    "subtractEnergyFlux",
			doc:     "f = f - (v.t + q), the stress's work summed from +0, in place",
			streams: []string{"f", "v0", "v1", "v2", "t0", "t1", "t2", "q"},
			outs:    []pwOutput{{"f", sub(f, add(work, ld("q")))}},
		})
	return ks
}

// scalars lists a kernel's float64 arguments: the caller's, then the
// constants.
func (k *pwKernel) scalars() []string {
	s := append([]string(nil), k.params...)
	for _, c := range k.consts {
		s = append(s, c.name)
	}
	return s
}

// A pwNode is a distinct node of a kernel's DAG, in evaluation order.
type pwNode struct {
	e    *expr
	a, b *pwNode
	uses int // operand references plus stores
}

// dag numbers the distinct nodes of a kernel's trees in evaluation order
// (each output's tree post-order, left before right, in store order) and
// returns them with the node each output stores.
func (k *pwKernel) dag() ([]*pwNode, []*pwNode) {
	seen := map[string]*pwNode{}
	var order []*pwNode
	var walk func(e *expr) *pwNode
	walk = func(e *expr) *pwNode {
		if n, ok := seen[e.key()]; ok {
			return n
		}
		n := &pwNode{e: e}
		if e.a != nil {
			n.a = walk(e.a)
			n.a.uses++
		}
		if e.b != nil {
			n.b = walk(e.b)
			n.b.uses++
		}
		seen[e.key()] = n
		order = append(order, n)
		return n
	}
	outs := make([]*pwNode, len(k.outs))
	for i, o := range k.outs {
		outs[i] = walk(o.e)
		outs[i].uses++
	}
	return order, outs
}

func args(names []string, typ string) string {
	if len(names) == 0 {
		return ""
	}
	return strings.Join(names, ", ") + " " + typ
}

// signature is the Go parameter list of a kernel's wrapper (streams and
// the caller's scalars) or, with consts, of its Go loop.
func (k *pwKernel) signature(consts bool) string {
	scalars := k.params
	if consts {
		scalars = k.scalars()
	}
	parts := []string{args(k.streams, "[]float64")}
	if len(scalars) > 0 {
		parts = append(parts, args(scalars, "float64"))
	}
	return strings.Join(parts, ", ")
}

// reslice emits the statement cutting every stream after the first to
// the first's length n (which also lets the compiler drop the loops'
// bounds checks).
func (k *pwKernel) reslice(b *bytes.Buffer) {
	if len(k.streams) < 2 {
		return
	}
	var rs []string
	for _, s := range k.streams[1:] {
		rs = append(rs, s+"[:n]")
	}
	fmt.Fprintf(b, "\t%s = %s\n", strings.Join(k.streams[1:], ", "), strings.Join(rs, ", "))
}

// goLoopCall is the wrapper's call of the Go loop over streams sliced
// from index from.
func (k *pwKernel) goLoopCall(from string) string {
	var a []string
	for _, s := range k.streams {
		a = append(a, s+from)
	}
	a = append(a, k.params...)
	for _, c := range k.consts {
		a = append(a, c.value)
	}
	return fmt.Sprintf("%sGo(%s)", k.name, strings.Join(a, ", "))
}

// genPointwiseGo writes the Go loops: one per kernel, each point's
// shared nodes in locals and every store after every load.
func genPointwiseGo() string {
	var b bytes.Buffer
	header(&b, "pointwise kernels: Go loops", "", "solver")
	for _, k := range pointwiseKernels() {
		order, outs := k.dag()
		fmt.Fprintf(&b, "// %sGo is %s: %s.\n", k.name, k.name, k.doc)
		fmt.Fprintf(&b, "func %sGo(%s) {\n", k.name, k.signature(true))
		fmt.Fprintf(&b, "\tn := len(%s)\n", k.streams[0])
		k.reslice(&b)
		b.WriteString("\tfor i := 0; i < n; i++ {\n")
		isOut := map[*pwNode]bool{}
		for _, o := range outs {
			isOut[o] = true
		}
		local := map[*pwNode]string{}
		var text func(n *pwNode, top bool) string
		text = func(n *pwNode, top bool) string {
			if l, ok := local[n]; ok {
				return l
			}
			switch n.e.op {
			case 'l':
				return n.e.name + "[i]"
			case 'k':
				return n.e.name
			case '0':
				return "0"
			case 'n':
				return "-(" + text(n.a, true) + ")"
			}
			s := text(n.a, false) + " " + string(n.e.op) + " " + text(n.b, false)
			if !top {
				s = "(" + s + ")"
			}
			return s
		}
		for _, n := range order {
			leaf := n.e.op == 'k' || n.e.op == '0' || (n.e.op == 'l' && !isOut[n])
			if leaf || (n.uses < 2 && !isOut[n]) {
				continue
			}
			name := fmt.Sprintf("e%d", len(local))
			fmt.Fprintf(&b, "\t\t%s := %s\n", name, text(n, true))
			local[n] = name
		}
		for i, o := range k.outs {
			fmt.Fprintf(&b, "\t\t%s[i] = %s\n", o.stream, local[outs[i]])
		}
		b.WriteString("\t}\n}\n\n")
	}
	return b.String()
}

// genPointwiseDecls writes the AVX2 build's wrappers and the assembly
// declarations.
func genPointwiseDecls() string {
	var b bytes.Buffer
	header(&b, "pointwise kernels: AVX2 wrappers and declarations", avx2Tag, "solver")
	b.WriteString(`import "repro/internal/sem"

// pwSIMD reports whether the AVX2 loops run: each wrapper hands them the
// largest multiple of four points and its Go loop the rest.
var pwSIMD = sem.HasSIMD()

`)
	for _, k := range pointwiseKernels() {
		first := k.streams[0]
		fmt.Fprintf(&b, "// %s computes %s.\n", k.name, k.doc)
		fmt.Fprintf(&b, "func %s(%s) {\n", k.name, k.signature(false))
		fmt.Fprintf(&b, "\tn := len(%s)\n", first)
		k.reslice(&b)
		b.WriteString("\tm := 0\n\tif pwSIMD && n >= 4 {\n\t\tm = n &^ 3\n")
		var ptrs []string
		for _, s := range k.streams {
			ptrs = append(ptrs, "&"+s+"[0]")
		}
		a := append(ptrs, k.params...)
		for _, c := range k.consts {
			a = append(a, c.value)
		}
		fmt.Fprintf(&b, "\t\t%sAVX2(%s, m)\n\t}\n", k.name, strings.Join(a, ", "))
		fmt.Fprintf(&b, "\t%s\n}\n\n", k.goLoopCall("[m:]"))
		fmt.Fprintf(&b, "// %sAVX2 is %s's AVX2 loop over the first n&^3 points.\n//\n//go:noescape\n", k.name, k.name)
		fmt.Fprintf(&b, "func %sAVX2(%s", k.name, args(k.streams, "*float64"))
		if sc := k.scalars(); len(sc) > 0 {
			fmt.Fprintf(&b, ", %s", args(sc, "float64"))
		}
		b.WriteString(", n int)\n\n")
	}
	return b.String()
}

// genPointwiseNoasm writes the wrappers of the builds without the AVX2
// loops: each runs its Go loop.
func genPointwiseNoasm() string {
	var b bytes.Buffer
	header(&b, "pointwise kernels: Go-only wrappers", "!amd64 || semnoasm || race", "solver")
	for _, k := range pointwiseKernels() {
		fmt.Fprintf(&b, "// %s computes %s.\n", k.name, k.doc)
		fmt.Fprintf(&b, "func %s(%s) { %s }\n\n", k.name, k.signature(false), k.goLoopCall(""))
	}
	return b.String()
}

// genPointwiseTest writes the table the differential tests run every
// kernel from: adapters over a slice of streams and one of scalars.
func genPointwiseTest() string {
	var b bytes.Buffer
	header(&b, "pointwise kernels: test table", avx2Tag, "solver")
	b.WriteString(`// pwKernels lists every pointwise kernel's Go and AVX2 loops behind
// adapters taking the streams and the scalars (caller's, then constants)
// as slices; avx2 runs the first n&^3 points.
var pwKernels = []struct {
	name             string
	streams, scalars int
	goLoop           func(s [][]float64, k []float64)
	avx2             func(s [][]float64, k []float64, n int)
}{
`)
	for _, k := range pointwiseKernels() {
		var gs, ps, ks []string
		for i := range k.streams {
			gs = append(gs, fmt.Sprintf("s[%d]", i))
			ps = append(ps, fmt.Sprintf("&s[%d][:1][0]", i))
		}
		for i := range k.scalars() {
			ks = append(ks, fmt.Sprintf("k[%d]", i))
		}
		fmt.Fprintf(&b, "\t{%q, %d, %d,\n", k.name, len(k.streams), len(ks))
		fmt.Fprintf(&b, "\t\tfunc(s [][]float64, k []float64) { %sGo(%s) },\n", k.name, strings.Join(append(gs, ks...), ", "))
		fmt.Fprintf(&b, "\t\tfunc(s [][]float64, k []float64, n int) { %sAVX2(%s) }},\n", k.name, strings.Join(append(append(ps, ks...), "n"), ", "))
	}
	b.WriteString("}\n")
	return b.String()
}

// The AVX2 loops. Each streams four points per iteration: every node of
// the DAG is one VEX instruction on four lanes — VMULPD, VADDPD, VSUBPD,
// VDIVPD or a sign-bit VXORPD, never an FMA — so every lane evaluates
// the Go loop's tree, rounding where it rounds. Scalars are broadcast
// from the argument frame once (VBROADCASTSD); +0 and the sign mask are
// made in registers. No legacy-SSE instruction touches an X register: a
// VEX instruction after one pays an AVX/SSE state transition.

// pwGPR holds the stream pointers; CX is the point index, DX the count.
var pwGPR = []string{"AX", "BX", "SI", "DI", "R8", "R9", "R10", "R11", "R12", "R13"}

var pwOps = map[byte]string{'+': "VADDPD", '-': "VSUBPD", '*': "VMULPD", '/': "VDIVPD"}

func genPointwiseAsm() string {
	var b bytes.Buffer
	header(&b, "pointwise kernels: AVX2 loops", avx2Tag, "")
	for i, k := range pointwiseKernels() {
		if i > 0 {
			b.WriteString("\n")
		}
		pwAsmKernel(&b, k)
	}
	return b.String()
}

func pwAsmKernel(b *bytes.Buffer, k pwKernel) {
	if len(k.streams) > len(pwGPR) {
		log.Fatalf("pointwise kernel %s: %d streams, room for %d", k.name, len(k.streams), len(pwGPR))
	}
	order, outs := k.dag()
	scalars := k.scalars()
	frame := 8 * (len(k.streams) + len(scalars) + 1)
	gpr := map[string]string{}
	fmt.Fprintf(b, "// func %sAVX2(%s", k.name, args(k.streams, "*float64"))
	if len(scalars) > 0 {
		fmt.Fprintf(b, ", %s", args(scalars, "float64"))
	}
	fmt.Fprintf(b, ", n int)\nTEXT ·%sAVX2(SB), NOSPLIT, $0-%d\n", k.name, frame)
	for i, s := range k.streams {
		gpr[s] = pwGPR[i]
		fmt.Fprintf(b, "\tMOVQ %s+%d(FP), %s\n", s, 8*i, pwGPR[i])
	}

	// Registers Y15 downward hold the loop invariants: scalars, +0, the
	// sign mask.
	next := 15
	fixed := map[string]int{}
	for _, n := range order {
		key := n.e.key()
		if _, ok := fixed[key]; ok {
			continue
		}
		switch n.e.op {
		case 'k':
			off := 8 * len(k.streams)
			for i, s := range scalars {
				if s == n.e.name {
					off += 8 * i
				}
			}
			fmt.Fprintf(b, "\tVBROADCASTSD %s+%d(FP), Y%d\n", n.e.name, off, next)
		case '0':
			fmt.Fprintf(b, "\tVXORPD Y%d, Y%d, Y%d\n", next, next, next)
		case 'n':
			key = "sign"
			if _, ok := fixed[key]; ok {
				continue
			}
			fmt.Fprintf(b, "\tVPCMPEQQ Y%d, Y%d, Y%d\n\tVPSLLQ $63, Y%d, Y%d\n", next, next, next, next, next)
		default:
			continue
		}
		fixed[key] = next
		next--
	}
	fmt.Fprintf(b, "\tMOVQ n+%d(FP), DX\n\tANDQ $-4, DX\n\tXORQ CX, CX\n\tCMPQ CX, DX\n\tJGE done\n\nloop:\n",
		8*(len(k.streams)+len(scalars)))

	// A load used once, as a right operand, is that instruction's memory
	// operand; every other node gets the lowest free register and frees
	// its operands' registers at their last use.
	mem := func(s string) string { return fmt.Sprintf("(%s)(CX*8)", gpr[s]) }
	folded := map[*pwNode]bool{}
	for _, n := range order {
		if n.b != nil && n.b.e.op == 'l' && n.b.uses == 1 {
			folded[n.b] = true
		}
	}
	reg := map[*pwNode]int{}
	var free []bool
	for y := 0; y <= next; y++ {
		free = append(free, true)
	}
	operand := func(n *pwNode) string {
		if folded[n] {
			return mem(n.e.name)
		}
		if y, ok := fixed[n.e.key()]; ok {
			return fmt.Sprintf("Y%d", y)
		}
		return fmt.Sprintf("Y%d", reg[n])
	}
	release := func(n *pwNode) {
		n.uses--
		if y, ok := reg[n]; ok && n.uses == 0 {
			free[y] = true
		}
	}
	alloc := func(n *pwNode) string {
		for y, f := range free {
			if f {
				free[y] = false
				reg[n] = y
				return fmt.Sprintf("Y%d", y)
			}
		}
		log.Fatalf("pointwise kernel %s: out of YMM registers", k.name)
		return ""
	}
	// An output stream that is also read is stored once every read of
	// it has been issued.
	loaded := map[string]bool{}
	read := map[string]bool{}
	for _, n := range order {
		if n.e.op == 'l' {
			read[n.e.name] = true
		}
	}
	stored := make([]bool, len(k.outs))
	done := map[*pwNode]bool{}
	flush := func() {
		for i, o := range k.outs {
			if stored[i] || !done[outs[i]] || (read[o.stream] && !loaded[o.stream]) {
				continue
			}
			fmt.Fprintf(b, "\tVMOVUPD %s, %s\n", operand(outs[i]), mem(o.stream))
			release(outs[i])
			stored[i] = true
		}
	}
	for _, n := range order {
		switch {
		case n.e.op == 'k' || n.e.op == '0' || folded[n]:
		case n.e.op == 'l':
			fmt.Fprintf(b, "\tVMOVUPD %s, %s\n", mem(n.e.name), alloc(n))
			loaded[n.e.name] = true
		case n.e.op == 'n':
			src := operand(n.a)
			release(n.a)
			fmt.Fprintf(b, "\tVXORPD Y%d, %s, %s\n", fixed["sign"], src, alloc(n))
		default:
			a, c := operand(n.a), operand(n.b)
			if folded[n.b] {
				loaded[n.b.e.name] = true
			}
			release(n.a)
			release(n.b)
			fmt.Fprintf(b, "\t%s %s, %s, %s\n", pwOps[n.e.op], c, a, alloc(n))
		}
		done[n] = true
		flush()
	}
	for i := range stored {
		if !stored[i] {
			log.Fatalf("pointwise kernel %s: output %s never stored", k.name, k.outs[i].stream)
		}
	}
	b.WriteString("\tADDQ $4, CX\n\tCMPQ CX, DX\n\tJLT loop\n\ndone:\n\tVZEROUPPER\n\tRET\n")
}
