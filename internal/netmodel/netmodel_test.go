package netmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCostScalesWithSize(t *testing.T) {
	m := QDR
	small := m.Cost(8, 1)
	big := m.Cost(8*1024*1024, 1)
	if big <= small {
		t.Fatalf("cost should grow with size: %g vs %g", small, big)
	}
	want := m.Alpha + m.Beta*8
	if math.Abs(small-want) > 1e-18 {
		t.Fatalf("Cost(8,1) = %g, want %g", small, want)
	}
}

func TestCostHops(t *testing.T) {
	m := QDR
	if m.Cost(64, 4) <= m.Cost(64, 1) {
		t.Fatal("more hops should cost more on a distance-sensitive model")
	}
	flat := Loopback // SwitchHops == 0
	if flat.Cost(64, 4) != flat.Cost(64, 1) {
		t.Fatal("flat model must ignore hops")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m.Name != name {
			t.Fatalf("ByName(%q) returned %q", name, m.Name)
		}
		if m.Alpha <= 0 || m.Beta <= 0 || m.GammaCompute <= 0 {
			t.Fatalf("preset %q has nonpositive parameters: %+v", name, m)
		}
	}
	if _, err := ByName("no-such-machine"); err == nil {
		t.Fatal("ByName should fail for unknown models")
	}
}

func TestPresetOrdering(t *testing.T) {
	// Sanity of hardware-class ordering: loopback < QDR < GigE latency.
	if !(Loopback.Alpha < QDR.Alpha && QDR.Alpha < GigE.Alpha) {
		t.Fatal("latency presets out of order")
	}
	if !(Loopback.Beta < QDR.Beta && QDR.Beta < GigE.Beta) {
		t.Fatal("bandwidth presets out of order")
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(Loopback)
	if c.Now() != 0 {
		t.Fatal("clock must start at zero")
	}
	c.Advance(1.5)
	c.Advance(-3) // negative must be ignored
	if c.Now() != 1.5 {
		t.Fatalf("Now = %g, want 1.5", c.Now())
	}
	c.AdvanceCompute(2)
	if c.Now() != 1.5+2*Loopback.GammaCompute {
		t.Fatalf("Now = %g after compute", c.Now())
	}
}

func TestClockComputeScaling(t *testing.T) {
	c := NewClock(Exascale)
	c.AdvanceCompute(10)
	want := 10 * Exascale.GammaCompute
	if math.Abs(c.Now()-want) > 1e-12 {
		t.Fatalf("modeled compute %g, want %g", c.Now(), want)
	}
}

func TestSendStamp(t *testing.T) {
	c := NewClock(QDR)
	arrival := c.SendStamp(1024, 1)
	if arrival <= 0 {
		t.Fatal("arrival must be positive")
	}
	// Sender is only charged the injection overhead, not the wire time.
	if c.Now() != QDR.Alpha {
		t.Fatalf("sender clock = %g, want alpha = %g", c.Now(), QDR.Alpha)
	}
	if arrival < c.Now() {
		t.Fatal("arrival must not precede the sender's clock")
	}
}

func TestWaitUntil(t *testing.T) {
	c := NewClock(QDR)
	c.Advance(5)
	if w := c.WaitUntil(3); w != 0 {
		t.Fatalf("waiting for the past should be free, got %g", w)
	}
	if c.Now() != 5 {
		t.Fatal("WaitUntil must never move the clock backwards")
	}
	if w := c.WaitUntil(7.5); math.Abs(w-2.5) > 1e-12 {
		t.Fatalf("wait = %g, want 2.5", w)
	}
	if c.Now() != 7.5 {
		t.Fatalf("clock = %g, want 7.5", c.Now())
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: no sequence of operations ever decreases the clock.
	f := func(steps []float64) bool {
		c := NewClock(QDR)
		prev := 0.0
		for i, s := range steps {
			switch i % 3 {
			case 0:
				c.Advance(s)
			case 1:
				c.AdvanceCompute(s)
			case 2:
				c.WaitUntil(s)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostNonNegativeProperty(t *testing.T) {
	f := func(size uint16, hops uint8) bool {
		for _, m := range []Model{Loopback, QDR, GigE, Exascale} {
			if m.Cost(int(size), int(hops)) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInjectionFactorStallsSender(t *testing.T) {
	offload := Model{Name: "offload", Alpha: 1e-6, Beta: 1e-9, GammaCompute: 1}
	hostNIC := offload
	hostNIC.InjectionFactor = 1
	c1 := NewClock(offload)
	c2 := NewClock(hostNIC)
	const size = 1 << 20
	a1 := c1.SendStamp(size, 1)
	a2 := c2.SendStamp(size, 1)
	if a1 != a2 {
		t.Fatalf("arrival times must not depend on injection factor: %v vs %v", a1, a2)
	}
	if c2.Now() <= c1.Now() {
		t.Fatalf("host-driven sender should be stalled longer: %v vs %v", c2.Now(), c1.Now())
	}
	// Fully host-driven: sender stalled for alpha + full wire byte time.
	want := offload.Alpha + offload.Beta*size
	if math.Abs(c2.Now()-want) > 1e-15 {
		t.Fatalf("sender stall = %v, want %v", c2.Now(), want)
	}
}

func TestPhaseAccountingSumsToNow(t *testing.T) {
	c := NewClock(GigE)
	// Nested phases interleaved with every kind of clock mutation.
	outside := c.SetPhase("rhs")
	c.AdvanceCompute(1e-3)
	c.Advance(2e-4)
	outer := c.SetPhase("gs-exchange")
	arrival := c.SendStamp(4096, 2)
	c.WaitUntil(arrival)
	if got := c.SetPhase(outer); got != "gs-exchange" || c.Phase() != "rhs" {
		t.Fatalf("after setting back: previous %q, phase %q, want gs-exchange and rhs", got, c.Phase())
	}
	c.Advance(5e-5)
	c.SetPhase(outside)
	// Charges outside any phase land in the "" bucket.
	c.AdvanceCompute(3e-4)
	c.WaitUntil(c.Now()) // no-op wait charges nothing

	var sum float64
	for _, s := range c.PhaseSplits() {
		sum += s.Total()
	}
	if sum != c.Now() {
		t.Fatalf("sum of phase splits = %v, Now = %v (must be exact)", sum, c.Now())
	}
	sp := c.PhaseSplits()
	if sp["gs-exchange"].Wait == 0 || sp["gs-exchange"].Send == 0 {
		t.Fatalf("gs-exchange should have wait and send time: %+v", sp["gs-exchange"])
	}
	if sp["rhs"].Compute == 0 || sp["rhs"].Wait != 0 {
		t.Fatalf("rhs should be compute-only: %+v", sp["rhs"])
	}
	if sp[""].Compute == 0 {
		t.Fatalf("out-of-phase compute should land in \"\": %+v", sp[""])
	}
}

func TestSetPhaseSameKeepsAccumulating(t *testing.T) {
	c := NewClock(Loopback)
	c.SetPhase("rk")
	c.Advance(1e-6)
	if prev := c.SetPhase("rk"); prev != "rk" {
		t.Fatalf("previous phase = %q, want rk", prev)
	}
	c.Advance(1e-6)
	if got := c.PhaseSplits()["rk"].Compute; got != 2e-6 {
		t.Fatalf("re-setting the current phase must keep its split, rk.Compute = %v", got)
	}
}

func TestPhaseAccountingDoesNotPerturbClock(t *testing.T) {
	run := func(withPhases bool) float64 {
		c := NewClock(QDR)
		if withPhases {
			c.SetPhase("rhs")
		}
		c.AdvanceCompute(1e-3)
		a := c.SendStamp(1<<16, 3)
		c.WaitUntil(a)
		c.SetPhase("")
		return c.Now()
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("phase accounting changed the clock: %v vs %v", a, b)
	}
}
