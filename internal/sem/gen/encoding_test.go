package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The generated assembly is VEX-encoded throughout. A legacy-SSE
// instruction on an X register after a VEX instruction has written a Y
// register costs an AVX/SSE state transition — on a 2-vCPU KVM guest a
// kernel that loaded its constants with MOVQ AX, Xn took ~290 ns more
// per call, which on 124-point kernels was more than the vector loop
// saved. And an FMA rounds once where the Go loops round twice, which
// breaks bit-identity with them. Both are refused here, in every
// committed file the generator emits.

var (
	xReg   = regexp.MustCompile(`\bX([0-9]|1[0-5])\b`)
	fmaOps = regexp.MustCompile(`^VF(N)?M(ADD|SUB)`)
)

// encodingFaults returns the lines of src that use a legacy-SSE
// instruction on an X register or an FMA.
func encodingFaults(src string) []string {
	var bad []string
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasSuffix(fields[0], ":") || strings.HasPrefix(fields[0], "#") {
			continue
		}
		op := fields[0]
		if (!strings.HasPrefix(op, "V") && xReg.MatchString(line)) || fmaOps.MatchString(op) {
			bad = append(bad, strings.TrimSpace(line))
		}
	}
	return bad
}

func TestEncodingFaultsFlags(t *testing.T) {
	src := "TEXT ·k(SB), NOSPLIT, $0-8\n\tMOVQ AX, X1 // legacy\n\tVFMADD231PD Y1, Y2, Y3\n\tVADDPD Y1, Y2, Y3\n\tMOVQ AX, BX\n\tVMOVQ AX, X2\n"
	got := encodingFaults(src)
	want := []string{"MOVQ AX, X1", "VFMADD231PD Y1, Y2, Y3"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("encodingFaults = %q, want %q", got, want)
	}
}

// TestGeneratedAssemblyIsVEXOnly reads every committed .s file the
// generator emits, in internal/sem and internal/solver.
func TestGeneratedAssemblyIsVEXOnly(t *testing.T) {
	sets := []struct {
		dir   string
		files map[string]string
	}{{"..", semFiles()}, {filepath.Join("..", "..", "solver"), solverFiles()}}
	n := 0
	for _, set := range sets {
		for name := range set.files {
			if !strings.HasSuffix(name, ".s") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(set.dir, name))
			if err != nil {
				t.Fatal(err)
			}
			n++
			for _, line := range encodingFaults(string(src)) {
				t.Errorf("%s: %s", name, line)
			}
		}
	}
	if n < 2 {
		t.Fatalf("checked %d assembly files, want the sem and solver ones", n)
	}
}
