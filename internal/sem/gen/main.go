// Command gen emits the generated kernels: the fully-unrolled
// small-matrix and derivative kernel specializations of package sem, and
// the pointwise kernels of package solver. It is run via go:generate —
// `go run ./gen -sem .` from internal/sem, `go run ../sem/gen -solver .`
// from internal/solver — and writes, with -sem DIR:
//
//	mxm_gen.go    — mxmGenK1..K16: C = A*B with the reduction (k) loop
//	                fully unrolled, the Nek5000 mxm44 playbook extended
//	                to every practical polynomial order.
//	deriv_gen.go  — derivRN4..N16 / derivSN4..N16: one direction's
//	                derivative over a whole batch of elements — what
//	                sem.Deriv(Optimized) runs along r and s without AVX2.
//	deriv_avx2_amd64.s / deriv_avx2_gen.go — lanedAVX2N4..N16: the
//	                same r/s dot products four outputs to a vector, and
//	                their Go declarations — what it runs with AVX2.
//
// and with -solver DIR, from the one table in pointwise.go (each kernel's
// streams, scalars and one expression tree per written stream):
//
//	pointwise_gen.go        — <kernel>Go: each kernel's Go loop, used in
//	                          every build.
//	pointwise_avx2_amd64.s / pointwise_avx2_gen.go — <kernel>AVX2: the
//	                          same trees four points to a vector, their
//	                          declarations, and the wrappers the solver
//	                          calls (AVX2 over n&^3 points, Go for the
//	                          rest; build tag amd64 && !semnoasm && !race,
//	                          dispatch on sem.HasSIMD()).
//	pointwise_noasm_gen.go  — the wrappers of every other build: the Go
//	                          loop alone.
//	pointwise_avx2_gen_test.go — both loops of every kernel behind
//	                          uniform adapters, for the differential tests.
//
// Each of r and s has its per-plane loop body once, in planeR / planeS
// below; a derivRN* / derivSN* kernel is that body over every plane of a
// batch. (The t direction is a plain row-major mxm with ascending-l
// accumulation, so sem.Deriv runs MxM(MxMSIMD)'s kernel there instead
// of a kernel of its own.)
//
// Bit-exactness contracts (the generator's invariants, pinned by tests):
//
//   - mxmGenK* accumulate each output element's k-term dot
//     product strictly left to right, exactly like mxmBasic, so even
//     rounding agrees and the kernels stay eligible wherever
//     bit-reproducibility is asserted.
//   - planeR/planeS replicate the 4-lane partial-sum grouping of the
//     hand-written dudrOpt/dudsOpt loops, so every derivRN* and derivSN*
//     kernel is bit-identical to the Optimized sweeps it replaces (which
//     survive as the fallback outside [nMin, nMax]).
//   - lanedAVX2N* evaluates lanedDot's expression tree in every vector
//     lane — separate VMULPD/VADDPD, no FMA, a lane's first product
//     written straight into its accumulator — so it is bit-identical to
//     derivRN*/derivSN* on every input, signed zeros included.
//   - A pointwise kernel's trees keep the parenthesisation of the solver
//     loops they replaced, so its Go loop is those loops' arithmetic. Its
//     AVX2 loop evaluates the same trees in every lane: one VMULPD,
//     VADDPD, VSUBPD or VDIVPD per node, never an FMA; negation is a
//     sign-bit VXORPD and a "0 +" adds a zeroed register; constants
//     (Gamma-1, 0.5, 2.0/3.0, ...) are float64 arguments Go computes,
//     broadcast with VBROADCASTSD. So it is bit-identical to the Go loop
//     on every input, signed zeros included (FuzzPointwiseKernels); an
//     in-place kernel stores a stream only after every read of it.
//   - Every generated .s is VEX-encoded only: no legacy-SSE instruction
//     on an X register, no FMA (TestGeneratedAssemblyIsVEXOnly).
//
// The output is deterministic: same generator, same bytes. CI runs
// `make generate-check` to keep the committed kernels in sync with the
// generator.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"
	"strings"
)

// kMin/kMax bound the generated reduction sizes; nMin/nMax bound the
// generated derivative orders. The paper's practical range is N in
// [5, 16]; k down to 1 costs nothing and keeps the dispatcher total.
const (
	kMin = 1
	kMax = 16
	nMin = 4
	nMax = 16
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gen: ")
	semDir := flag.String("sem", "", "write package sem's kernels to this directory")
	solverDir := flag.String("solver", "", "write package solver's pointwise kernels to this directory")
	flag.Parse()
	if *semDir == "" && *solverDir == "" {
		log.Fatal("nothing to write: give -sem DIR and/or -solver DIR")
	}
	if *semDir != "" {
		write(*semDir, semFiles())
	}
	if *solverDir != "" {
		write(*solverDir, solverFiles())
	}
}

// semFiles and solverFiles are the generator's outputs, by file name.
func semFiles() map[string]string {
	return map[string]string{
		"mxm_gen.go":         genMxM(),
		"deriv_gen.go":       genDeriv(),
		"deriv_avx2_gen.go":  genLanedDecls(),
		"deriv_avx2_amd64.s": genLanedAsm(),
	}
}

func solverFiles() map[string]string {
	return map[string]string{
		"pointwise_gen.go":           genPointwiseGo(),
		"pointwise_avx2_gen.go":      genPointwiseDecls(),
		"pointwise_noasm_gen.go":     genPointwiseNoasm(),
		"pointwise_avx2_amd64.s":     genPointwiseAsm(),
		"pointwise_avx2_gen_test.go": genPointwiseTest(),
	}
}

func write(dir string, files map[string]string) {
	for name, src := range files {
		out := []byte(src)
		if strings.HasSuffix(name, ".go") {
			formatted, err := format.Source(out)
			if err != nil {
				log.Fatalf("%s: generated source does not format: %v", name, err)
			}
			out = formatted
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

// header starts a generated file: the generated-code line, a build
// constraint when tag is set, then the package clause of a Go file (pkg
// set) or the textflag include of an assembly file.
func header(b *bytes.Buffer, what, tag, pkg string) {
	fmt.Fprintf(b, "// Code generated by repro/internal/sem/gen (%s). DO NOT EDIT.\n\n", what)
	if tag != "" {
		fmt.Fprintf(b, "//go:build %s\n\n", tag)
	}
	if pkg == "" {
		b.WriteString("#include \"textflag.h\"\n\n")
		return
	}
	fmt.Fprintf(b, "package %s\n\n", pkg)
}

// seqDot returns a strictly left-to-right k-term sum of term(l) — the
// exact accumulation order of mxmBasic's scalar reduction loop.
func seqDot(k int, term func(l int) string) string {
	parts := make([]string, k)
	for l := 0; l < k; l++ {
		parts[l] = term(l)
	}
	return strings.Join(parts, " + ")
}

// lanedDot returns the 4-lane partial-sum expression matching the
// unrolled runtime kernels (dudrOpt/dudsOpt): lane p accumulates terms
// l ≡ p (mod 4) below n4 = n-n%4, lanes combine left to right, tail
// terms append sequentially. Parentheses pin the evaluation order.
func lanedDot(n int, term func(l int) string) string {
	n4 := n - n%4
	if n4 == 0 {
		return seqDot(n, term)
	}
	var lanes [4][]string
	for l := 0; l < n4; l++ {
		lanes[l%4] = append(lanes[l%4], term(l))
	}
	groups := make([]string, 4)
	for p := 0; p < 4; p++ {
		groups[p] = "(" + strings.Join(lanes[p], " + ") + ")"
	}
	expr := strings.Join(groups, " + ")
	for l := n4; l < n; l++ {
		expr += " + " + term(l)
	}
	return expr
}

func genMxM() string {
	var b bytes.Buffer
	header(&b, "fully-unrolled mxm kernels", "", "sem")
	fmt.Fprintf(&b, "// mxmGenMaxK is the largest k with a generated specialization.\nconst mxmGenMaxK = %d\n\n", kMax)
	b.WriteString(`// mxmGen dispatches C = A*B on the generated fully k-unrolled kernels;
// it reports false when k has no specialization. Each kernel accumulates
// every output element's dot product strictly left to right, bit-identical
// to mxmBasic.
func mxmGen(a []float64, m int, b []float64, k int, c []float64, n int) bool {
	switch k {
`)
	for k := kMin; k <= kMax; k++ {
		fmt.Fprintf(&b, "\tcase %d:\n\t\tmxmGenK%d(a, m, b, c, n)\n", k, k)
	}
	b.WriteString("\tdefault:\n\t\treturn false\n\t}\n\treturn true\n}\n\n")

	for k := kMin; k <= kMax; k++ {
		fmt.Fprintf(&b, "// mxmGenK%d: C (m x n) = A (m x %d) * B (%d x n), k fully unrolled.\n", k, k, k)
		fmt.Fprintf(&b, "func mxmGenK%d(a []float64, m int, b, c []float64, n int) {\n", k)
		for l := 0; l < k; l++ {
			fmt.Fprintf(&b, "\tb%d := b[%d*n : %d*n]\n", l, l, l+1)
		}
		b.WriteString("\tfor i := 0; i < m; i++ {\n")
		fmt.Fprintf(&b, "\t\tar := a[i*%d : i*%d+%d]\n", k, k, k)
		for l := 0; l < k; l++ {
			fmt.Fprintf(&b, "\t\ta%d := ar[%d]\n", l, l)
		}
		b.WriteString("\t\tci := c[i*n : i*n+n]\n\t\tfor j := range ci {\n")
		expr := seqDot(k, func(l int) string { return fmt.Sprintf("a%d*b%d[j]", l, l) })
		fmt.Fprintf(&b, "\t\t\tci[j] = %s\n", expr)
		b.WriteString("\t\t}\n\t}\n}\n\n")
	}
	return b.String()
}

// planeR emits dudr of source plane l: for each of the plane's n columns,
// the unit-stride dot products with every row of d. In scope: d, l, src
// (plane l of u) and the output ur.
func planeR(b *bytes.Buffer, n int) {
	n2 := n * n
	b.WriteString("\t\t// dudr: unit-stride dot products within the plane.\n")
	fmt.Fprintf(b, "\t\tfor j := 0; j < %d; j++ {\n", n)
	fmt.Fprintf(b, "\t\t\tuc := src[j*%d : j*%d+%d]\n", n, n, n)
	fmt.Fprintf(b, "\t\t\tdc := ur[l*%d+j*%d : l*%d+j*%d+%d]\n", n2, n, n2, n, n)
	fmt.Fprintf(b, "\t\t\tfor i := 0; i < %d; i++ {\n", n)
	fmt.Fprintf(b, "\t\t\t\tdi := d[i*%d : i*%d+%d]\n", n, n, n)
	expr := lanedDot(n, func(l int) string { return fmt.Sprintf("di[%d]*uc[%d]", l, l) })
	fmt.Fprintf(b, "\t\t\t\tdc[i] = %s\n", expr)
	b.WriteString("\t\t\t}\n\t\t}\n")
}

// planeS emits duds of plane l (slab k = l): stride-n dot products down
// the plane's columns. In scope: d, l, u and the output us.
func planeS(b *bytes.Buffer, n int) {
	b.WriteString("\t\t// duds: stride-n dot products within the plane.\n")
	fmt.Fprintf(b, "\t\tfor j := 0; j < %d; j++ {\n", n)
	fmt.Fprintf(b, "\t\t\tdj := d[j*%d : j*%d+%d]\n", n, n, n)
	fmt.Fprintf(b, "\t\t\tfor i := 0; i < %d; i++ {\n", n)
	fmt.Fprintf(b, "\t\t\t\tcol := l*%d + i\n", n*n)
	expr := lanedDot(n, func(l int) string {
		if l == 0 {
			return "dj[0]*u[col]"
		}
		return fmt.Sprintf("dj[%d]*u[col+%d]", l, l*n)
	})
	fmt.Fprintf(b, "\t\t\t\tus[col+%d*j] = %s\n", n, expr)
	b.WriteString("\t\t\t}\n\t\t}\n")
}

// table emits the per-order dispatch table name[n] = prefix<n>.
func table(b *bytes.Buffer, name, typ, prefix string) {
	fmt.Fprintf(b, "var %s = [...]%s{\n", name, typ)
	for n := nMin; n <= nMax; n++ {
		fmt.Fprintf(b, "\t%d: %s%d,\n", n, prefix, n)
	}
	b.WriteString("}\n\n")
}

func genDeriv() string {
	var b bytes.Buffer
	header(&b, "per-order single-direction derivative kernels", "", "sem")
	fmt.Fprintf(&b, "// derivGenMinN..derivGenMaxN are the orders with generated kernels.\nconst (\n\tderivGenMinN = %d\n\tderivGenMaxN = %d\n)\n\n", nMin, nMax)
	b.WriteString(`// derivRGen and derivSGen hold the r- and s-direction kernels of every
// generated order (nil elsewhere). A kernel runs one per-plane loop body
// over all nel*n planes of a batch of elements, keeping the 4-lane
// partial-sum grouping of dudrOpt / dudsOpt, so it is bit-identical to
// them. The order is baked in; the n argument only fills out the
// axisFunc signature.
`)
	table(&b, "derivRGen", "axisFunc", "derivRN")
	table(&b, "derivSGen", "axisFunc", "derivSN")

	for n := nMin; n <= nMax; n++ {
		n2 := n * n
		fmt.Fprintf(&b, "// derivRN%d: dudr of nel %d^3 elements.\n", n, n)
		fmt.Fprintf(&b, "func derivRN%d(d []float64, _ int, u, ur []float64, nel int) {\n", n)
		fmt.Fprintf(&b, "\tfor l := 0; l < nel*%d; l++ {\n", n)
		fmt.Fprintf(&b, "\t\tsrc := u[l*%d : l*%d+%d]\n", n2, n2, n2)
		planeR(&b, n)
		b.WriteString("\t}\n}\n\n")

		fmt.Fprintf(&b, "// derivSN%d: duds of nel %d^3 elements.\n", n, n)
		fmt.Fprintf(&b, "func derivSN%d(d []float64, _ int, u, us []float64, nel int) {\n", n)
		fmt.Fprintf(&b, "\tfor l := 0; l < nel*%d; l++ {\n", n)
		planeS(&b, n)
		b.WriteString("\t}\n}\n\n")
	}
	return b.String()
}

// The AVX2 r/s kernels. One order-n kernel computes, for each of a batch
// of planes, the n x n product C = A*B whose every output is lanedDot's
// expression over l — the accumulation order of dudrOpt/dudsOpt — with
// four consecutive outputs of a row per vector:
//
//	r: A = the source plane (row j is the column uc), B = Dt, fixed
//	s: A = D, fixed, B = the source plane
//
// so one routine serves both directions; the caller picks which operand
// advances from plane to plane (astep/bstep, in bytes).

// avx2Tag is the build constraint of every generated AVX2 file.
const avx2Tag = "amd64 && !semnoasm && !race"

// lanedVecs returns the output-row offsets of the vectors covering n
// outputs. The last vector of a row whose length is not a multiple of
// four starts at n-4 and overlaps its neighbour: the shared lanes hold
// the same expression over the same operands, so they are computed and
// stored twice with identical bits, and no load or store leaves the row.
func lanedVecs(n int) []int {
	var ivs []int
	for iv := 0; iv < n; iv += 4 {
		ivs = append(ivs, min(iv, n-4))
	}
	return ivs
}

// lanedGroups cuts a row's vectors into the groups accumulated together:
// a group of g vectors holds 4g partial sums, so g <= 3 fits the sixteen
// YMM registers next to one broadcast and the product temporaries, and
// two or three vectors in flight cover the add latency one would not.
func lanedGroups(ivs []int) [][]int {
	if len(ivs) <= 3 {
		return [][]int{ivs}
	}
	return [][]int{ivs[:2], ivs[2:]}
}

func genLanedDecls() string {
	var b bytes.Buffer
	header(&b, "AVX2 r/s derivative kernels: declarations", avx2Tag, "sem")
	b.WriteString(`// lanedAVX2 runs the AVX2 kernel of a generated order n: for each of
// planes consecutive n x n row-major planes, C = A*B with every output's
// dot product in the 4-lane partial-sum order of dudrOpt/dudsOpt —
// bit-identical to derivRN*/derivSN*. a and b advance by astep and bstep
// bytes per plane, c by one plane. (A switch over direct calls, not a
// table of function values: the kernels' noescape then reaches the
// caller, whose stack buffers stay on the stack.)
func lanedAVX2(n int, a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes int) {
	switch n {
`)
	for n := nMin; n <= nMax; n++ {
		fmt.Fprintf(&b, "\tcase %d:\n\t\tlanedAVX2N%d(a, astep, b, bstep, c, planes)\n", n, n)
	}
	b.WriteString("\tdefault:\n\t\tpanic(\"sem: no AVX2 derivative kernel for this order\")\n\t}\n}\n\n")
	for n := nMin; n <= nMax; n++ {
		fmt.Fprintf(&b, "//go:noescape\nfunc lanedAVX2N%d(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes int)\n\n", n)
	}
	return b.String()
}

func genLanedAsm() string {
	var b bytes.Buffer
	header(&b, "AVX2 r/s derivative kernels", avx2Tag, "")
	b.WriteString(`// Register map, every kernel:
//   R8 = A plane   SI = A row      R9  = astep (bytes)   R11 = planes left
//   BX = B plane   DI = C row      R10 = bstep (bytes)   R12 = rows left
//   Y0..Y11 = partial sums (lane p, vector v of the group at Y(p*g+v))
//   Y12 = broadcast A[j][l]        Y13..Y15 = products
`)
	for n := nMin; n <= nMax; n++ {
		lanedKernel(&b, n)
	}
	return b.String()
}

func lanedKernel(b *bytes.Buffer, n int) {
	n4 := n - n%4
	fmt.Fprintf(b, "\n// func lanedAVX2N%d(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes int)\n", n)
	fmt.Fprintf(b, "TEXT ·lanedAVX2N%d(SB), NOSPLIT, $0-48\n", n)
	b.WriteString("\tMOVQ a+0(FP), R8\n\tMOVQ astep+8(FP), R9\n\tMOVQ b+16(FP), BX\n\tMOVQ bstep+24(FP), R10\n")
	b.WriteString("\tMOVQ c+32(FP), DI\n\tMOVQ planes+40(FP), R11\n\tTESTQ R11, R11\n\tJLE done\n\n")
	fmt.Fprintf(b, "plane:\n\tMOVQ R8, SI\n\tMOVQ $%d, R12\n\nrow:\n", n)
	for _, group := range lanedGroups(lanedVecs(n)) {
		g := len(group)
		acc := func(p, v int) string { return fmt.Sprintf("Y%d", p*g+v) }
		for l := 0; l < n; l++ {
			fmt.Fprintf(b, "\tVBROADCASTSD %d(SI), Y12\n", 8*l)
			for v, iv := range group {
				src := fmt.Sprintf("%d(BX)", 8*(l*n+iv))
				if l < 4 {
					// A lane's first product starts its partial sum.
					fmt.Fprintf(b, "\tVMULPD %s, Y12, %s\n", src, acc(l, v))
					continue
				}
				lane := 0 // tail terms join the combined sum
				if l < n4 {
					lane = l % 4
				}
				fmt.Fprintf(b, "\tVMULPD %s, Y12, Y%d\n", src, 13+v)
				fmt.Fprintf(b, "\tVADDPD Y%d, %s, %s\n", 13+v, acc(lane, v), acc(lane, v))
			}
			if l == n4-1 {
				// Lanes combine left to right: ((s0 + s1) + s2) + s3.
				for p := 1; p < 4; p++ {
					for v := range group {
						fmt.Fprintf(b, "\tVADDPD %s, %s, %s\n", acc(p, v), acc(0, v), acc(0, v))
					}
				}
			}
		}
		for v, iv := range group {
			fmt.Fprintf(b, "\tVMOVUPD %s, %d(DI)\n", acc(0, v), 8*iv)
		}
	}
	fmt.Fprintf(b, "\tADDQ $%d, SI\n\tADDQ $%d, DI\n\tDECQ R12\n\tJNZ row\n\n", 8*n, 8*n)
	b.WriteString("\tADDQ R9, R8\n\tADDQ R10, BX\n\tDECQ R11\n\tJNZ plane\n\ndone:\n\tVZEROUPPER\n\tRET\n")
}
