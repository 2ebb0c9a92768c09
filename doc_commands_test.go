package repro

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/sem"
	"repro/internal/solver"
)

// docFiles are the documents whose commands and identifiers are checked.
var docFiles = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	cmdRef   = regexp.MustCompile(`\bcmd/([a-z][a-z0-9]*)`)
	goRunCmd = regexp.MustCompile(`go run (?:-tags \S+ )?\./cmd/([a-z][a-z0-9]*)`)
	flagTok  = regexp.MustCompile(`^-([A-Za-z][A-Za-z0-9-]*)`)
	flagDecl = regexp.MustCompile(`flag\.[A-Za-z0-9]+\("([^"]+)"`)
)

// TestDocCommandsResolve keeps the documented commands runnable: every
// cmd/NAME the docs mention must exist, and every -flag written after
// `go run ./cmd/NAME` on the same line, up to a comment, the end of
// inline code or a shell separator, must be one that main declares.
// Flags on continuation lines are not checked.
func TestDocCommandsResolve(t *testing.T) {
	flags := map[string]map[string]bool{} // cmd -> declared flags; nil: no such cmd
	declared := func(cmd string) map[string]bool {
		if f, ok := flags[cmd]; ok {
			return f
		}
		srcs, _ := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
		if len(srcs) == 0 {
			flags[cmd] = nil
			return nil
		}
		f := map[string]bool{}
		for _, src := range srcs {
			b, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDecl.FindAllSubmatch(b, -1) {
				f[string(m[1])] = true
			}
		}
		flags[cmd] = f
		return f
	}

	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				if declared(m[1]) == nil {
					t.Errorf("%s:%d: cmd/%s does not exist", doc, i+1, m[1])
				}
			}
			for _, loc := range goRunCmd.FindAllStringSubmatchIndex(line, -1) {
				cmd := line[loc[2]:loc[3]]
				f := declared(cmd)
				if f == nil {
					continue // reported above
				}
				rest := line[loc[1]:]
				if j := strings.IndexAny(rest, "#`|;&)"); j >= 0 {
					rest = rest[:j]
				}
				for _, tok := range strings.Fields(rest) {
					m := flagTok.FindStringSubmatch(tok)
					if m == nil {
						continue
					}
					if !f[m[1]] {
						t.Errorf("%s:%d: go run ./cmd/%s: flag -%s is not declared by that main", doc, i+1, cmd, m[1])
					}
				}
			}
		}
	}
}

var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// pkgIdent matches pkg.Name or pkg.Type.Member not itself preceded by
	// a selector (so s.Rec.Region is not read as rec.Region).
	pkgIdent = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// pkgDecls is what one package declares in its non-test files: top-level
// names, per type its methods and struct fields, and the union of all
// methods and fields (docs write gs.OpTo for the method (*gs.GS).OpTo).
type pkgDecls struct {
	top, anyMember map[string]bool
	members        map[string]map[string]bool
}

func (d pkgDecls) addMember(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
	d.anyMember[name] = true
}

// recvTypeName returns the type name of a method receiver (T or *T).
func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// internalPackages parses every package under internal/ and indexes its
// declarations by package name.
func internalPackages(t *testing.T) map[string]pkgDecls {
	t.Helper()
	pkgs := map[string]pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		d, ok := pkgs[f.Name.Name]
		if !ok {
			d = pkgDecls{top: map[string]bool{}, anyMember: map[string]bool{}, members: map[string]map[string]bool{}}
			pkgs[f.Name.Name] = d
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
				} else {
					d.addMember(recvTypeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								d.addMember(spec.Name.Name, n.Name)
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestDocIdentifiersResolve keeps the documented API real: every
// backticked pkg.Name or pkg.Type.Member in the docs whose pkg is a
// package under internal/ must resolve there. Name must be a top-level
// declaration, a method or a struct field of the package; Member must be
// a method or field of Type. Other packages (net.Buffers, ...) are not
// checked.
func TestDocIdentifiersResolve(t *testing.T) {
	pkgs := internalPackages(t)
	checked := 0
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range pkgIdent.FindAllStringSubmatch(span, -1) {
					pkg, name, member := m[1], m[2], m[3]
					d, ok := pkgs[pkg]
					if !ok {
						continue
					}
					checked++
					switch {
					case !d.top[name] && !d.anyMember[name]:
						t.Errorf("%s:%d: %s.%s is not declared in package %s", doc, i+1, pkg, name, pkg)
					case member != "" && !d.members[name][member]:
						t.Errorf("%s:%d: %s.%s.%s: %s has no method or field %s", doc, i+1, pkg, name, member, name, member)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no package identifiers found in the docs")
	}
	t.Logf("%d references checked", checked)
}

// The cost-model section of DESIGN.md holds the charge schedule as a
// table between these markers; TestCostModelDoc renders it from
// solver.CostSchedule and fails if the document differs.
const (
	costModelBegin = "<!-- cost model: rendered from solver.CostSchedule by TestCostModelDoc -->"
	costModelEnd   = "<!-- end of cost model -->"
)

// TestCostModelDoc keeps DESIGN.md's cost-model table the schedule's: one
// row per sweep, in billing order, with the configurations that bill it
// (rows the same in several configurations are listed once), its region,
// phase, stopwatch stage, operations per element as polynomials in the
// order N and the dealiasing mesh's M, and traits; a run of rows repeated back to back is listed once,
// with its repeat count.
func TestCostModelDoc(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	i, j := strings.Index(doc, costModelBegin), strings.Index(doc, costModelEnd)
	if i < 0 || j < i {
		t.Fatalf("DESIGN.md has no %q ... %q section", costModelBegin, costModelEnd)
	}
	if got, want := doc[i+len(costModelBegin):j], "\n"+renderCostModel(t); got != want {
		t.Errorf("DESIGN.md's cost-model table is not the schedule's; between the markers it should read:\n%s", want)
	}
}

// renderCostModel renders the charge schedules of the four
// configurations as one markdown table.
func renderCostModel(t *testing.T) string {
	type config struct {
		name    string
		viscous bool
		variant sem.KernelVariant
	}
	configs := []config{
		{"inviscid Optimized", false, sem.Optimized}, {"inviscid Basic", false, sem.Basic},
		{"viscous Optimized", true, sem.Optimized}, {"viscous Basic", true, sem.Basic},
	}
	var points []string
	byPoint := map[string][][]string{} // point -> per config, its rendered rows
	for ci, c := range configs {
		var at [polyDeg + 1][polyDeg + 1][]solver.CostRow
		for i := range at {
			for j := range at[i] {
				at[i][j] = solver.CostSchedule(2+i, 2+j, c.viscous, c.variant)
			}
		}
		count := func(ri int, of func(sem.OpCount) int64) string {
			var v [polyDeg + 1][polyDeg + 1]int64
			for i := range at {
				for j := range at[i] {
					v[i][j] = of(at[i][j][ri].Ops)
				}
			}
			return polynomial(t, v)
		}
		next := 0 // where a point this configuration bills first goes in points
		for ri, r := range at[0][0] {
			traits := fmt.Sprintf("%g / %g / %g", r.Traits.VecFrac, r.Traits.OverheadPerFlop, r.Traits.MissRate)
			for d := 0; d < 3; d++ {
				if r.Traits == hw.DerivTraits(d, c.variant == sem.Optimized) {
					traits = "dud" + string("rst"[d])
				}
			}
			row := fmt.Sprintf("%s | %s | %s | %s | %s | %s | %s | %s |",
				blankOr(r.Region, "(unnamed)", "`"+r.Region+"`"), blankOr(r.Phase, "(enclosing)", r.Phase), blankOr(r.Stage, "—", r.Stage),
				count(ri, func(o sem.OpCount) int64 { return o.Mul }), count(ri, func(o sem.OpCount) int64 { return o.Add }),
				count(ri, func(o sem.OpCount) int64 { return o.Load }), count(ri, func(o sem.OpCount) int64 { return o.Store }), traits)
			if byPoint[r.Point] == nil {
				points = append(points[:next], append([]string{r.Point}, points[next:]...)...)
				byPoint[r.Point] = make([][]string, len(configs))
			}
			next = slices.Index(points, r.Point) + 1
			byPoint[r.Point][ci] = append(byPoint[r.Point][ci], row)
		}
	}
	var out strings.Builder
	out.WriteString("| point | configurations | × | region | phase | stage | mul | add | load | store | traits |\n")
	out.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, p := range points {
		done := make([]bool, len(configs))
		for ci, rows := range byPoint[p] {
			if done[ci] || rows == nil {
				continue
			}
			var names []string
			for cj := ci; cj < len(configs); cj++ {
				if !done[cj] && slices.Equal(byPoint[p][cj], rows) {
					done[cj], names = true, append(names, configs[cj].name)
				}
			}
			label := strings.Join(names, ", ")
			switch label {
			case "inviscid Optimized, inviscid Basic, viscous Optimized, viscous Basic":
				label = "all"
			case "inviscid Optimized, inviscid Basic":
				label = "inviscid"
			case "viscous Optimized, viscous Basic":
				label = "viscous"
			}
			for i := 0; i < len(rows); {
				period, times := repeats(rows[i:])
				for _, row := range rows[i : i+period] {
					fmt.Fprintf(&out, "| %s | %s | %d | %s\n", p, label, times, row)
				}
				i += period * times
			}
		}
	}
	return out.String()
}

// polyDeg bounds the power of N and of M in a count (the derivatives'
// N⁴).
const polyDeg = 4

// polynomial renders a count given at N, M = 2, …, 2+polyDeg (v[i][j] at
// N = 2+i, M = 2+j) as its sum of c·NᵃMᵇ, highest degree first, or ""
// for zero. It fails the test on a coefficient that is not an integer.
func polynomial(t *testing.T, v [polyDeg + 1][polyDeg + 1]int64) string {
	t.Helper()
	// The coefficients are W v Wᵀ, W the inverse of the nodes'
	// Vandermonde matrix, in exact arithmetic.
	const k = polyDeg + 1
	var w, vm [k][k]*big.Rat
	for i := range vm {
		for a := range vm[i] {
			vm[i][a] = new(big.Rat).SetInt64(int64(math.Pow(float64(2+i), float64(a))))
			w[i][a] = new(big.Rat) // the identity
			if i == a {
				w[i][a].SetInt64(1)
			}
		}
	}
	for col := 0; col < k; col++ { // Gauss-Jordan; the nodes are distinct, so no pivot is 0
		p := new(big.Rat).Inv(vm[col][col])
		for a := 0; a < k; a++ {
			vm[col][a].Mul(vm[col][a], p)
			w[col][a].Mul(w[col][a], p)
		}
		for r := 0; r < k; r++ {
			if r == col || vm[r][col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(vm[r][col])
			for a := 0; a < k; a++ {
				vm[r][a].Sub(vm[r][a], new(big.Rat).Mul(f, vm[col][a]))
				w[r][a].Sub(w[r][a], new(big.Rat).Mul(f, w[col][a]))
			}
		}
	}
	type term struct {
		a, b int
		c    int64
	}
	var terms []term
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			c := new(big.Rat)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					x := new(big.Rat).Mul(w[a][i], w[b][j])
					c.Add(c, x.Mul(x, new(big.Rat).SetInt64(v[i][j])))
				}
			}
			if !c.IsInt() || !c.Num().IsInt64() {
				t.Fatalf("count %v is not a polynomial in N and M with integer coefficients", v)
			}
			if n := c.Num().Int64(); n != 0 {
				terms = append(terms, term{a, b, n})
			}
		}
	}
	slices.SortFunc(terms, func(x, y term) int { return cmp.Or(cmp.Compare(y.a+y.b, x.a+x.b), cmp.Compare(y.a, x.a)) })
	power := func(x string, p int) string {
		return []string{"", x, x + "²", x + "³", x + "⁴"}[p]
	}
	var parts []string
	for _, tm := range terms {
		c := fmt.Sprint(tm.c)
		if tm.c == 1 && tm.a+tm.b > 0 {
			c = ""
		}
		parts = append(parts, c+power("N", tm.a)+power("M", tm.b))
	}
	return strings.Join(parts, " + ")
}

// repeats finds the run of rows that repeats back to back from the start
// and covers the most rows: its length and repeat count (1, 1 if none).
func repeats(rows []string) (period, times int) {
	period, times = 1, 1
	for p := 1; 2*p <= len(rows); p++ {
		n := 1
		for (n+1)*p <= len(rows) && slices.Equal(rows[n*p:(n+1)*p], rows[:p]) {
			n++
		}
		if n > 1 && n*p > period*times {
			period, times = p, n
		}
	}
	return period, times
}

// blankOr returns blank when s is "", else full.
func blankOr(s, blank, full string) string {
	if s == "" {
		return blank
	}
	return full
}
