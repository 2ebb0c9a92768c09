package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

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

	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
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
