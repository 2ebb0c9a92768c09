package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
