package bench

import (
	"strconv"
	"testing"

	"repro/internal/sem"
)

// TestMxMSweepEffectiveLabels is the regression test for the -mxm
// labeling bug: outside its specialization range a column (then the
// hand-specialized kernels, today "generated" above k = 16) used to
// credit the named kernel with the fused+unroll fallback's numbers. The
// sweep records must carry the kernel that actually ran.
func TestMxMSweepEffectiveLabels(t *testing.T) {
	records := MxMSweep(MxMSweepOptions{Ks: []int{8, 17}, Nel: 2, FlopBudget: 1})
	byKey := map[string]MxMRecord{}
	for _, r := range records {
		byKey[r.Variant+"/"+strconv.Itoa(r.K)] = r
	}
	if len(byKey) != 2*len(sem.MxMVariants) {
		t.Fatalf("got %d distinct records, want %d", len(byKey), 2*len(sem.MxMVariants))
	}
	if got := byKey["generated/8"].Effective; got != "generated" {
		t.Errorf("k=8 generated: effective %q", got)
	}
	if got := byKey["generated/17"].Effective; got != "fused+unroll" {
		t.Errorf("k=17 generated: effective %q, want fused+unroll (the labeling bug)", got)
	}
	wantSIMD := "fused+unroll"
	if sem.HasSIMD() {
		wantSIMD = "simd"
	}
	if got := byKey["simd/17"].Effective; got != wantSIMD {
		t.Errorf("k=17 simd: effective %q, want %q (AVX2=%v)", got, wantSIMD, sem.HasSIMD())
	}
	for _, r := range records {
		if r.Gflops <= 0 {
			t.Errorf("%s/k=%d: non-positive Gflop/s", r.Variant, r.K)
		}
		if r.SpeedupVsFU <= 0 {
			t.Errorf("%s/k=%d: non-positive speedup", r.Variant, r.K)
		}
	}
}
