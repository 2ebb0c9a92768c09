package sem

import "testing"

// TestDerivOpsExported: the exported per-direction cost must match what
// DerivPool reports, since fused call sites charge the hw model with it.
func TestDerivOpsExported(t *testing.T) {
	if DerivOps(7, 11) != derivOps(7, 11) {
		t.Fatal("DerivOps diverges from derivOps")
	}
	if got := Grad3Fused(NewRef1D(5), make([]float64, 250), make([]float64, 250),
		make([]float64, 250), make([]float64, 250), 2); got != DerivOps(5, 2).Times(3) {
		t.Fatalf("Grad3Fused ops %+v != 3x DerivOps", got)
	}
}
