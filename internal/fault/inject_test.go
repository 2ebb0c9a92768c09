package fault

import (
	"testing"

	"repro/internal/comm"
)

func msgSpec(seed int64) *Spec {
	return &Spec{
		Seed: seed,
		Messages: MsgFaults{
			Drop: 0.1, Corrupt: 0.1, Delay: 0.1,
			DelaySeconds: 1e-6, RetransmitSeconds: 1e-5,
		},
	}
}

// decisions replays n messages per (src,dst) pair through an injector and
// returns the flattened action stream.
func decisions(in *Injector, ranks, n int) []comm.FaultAction {
	var out []comm.FaultAction
	for src := 0; src < ranks; src++ {
		for dst := 0; dst < ranks; dst++ {
			if src == dst {
				continue
			}
			for k := 0; k < n; k++ {
				out = append(out, in.Message(src, dst, 5, 64, 0))
			}
		}
	}
	return out
}

func TestInjectorDeterministic(t *testing.T) {
	const ranks, n = 4, 200
	a := decisions(NewInjector(msgSpec(99), ranks, nil), ranks, n)
	b := decisions(NewInjector(msgSpec(99), ranks, nil), ranks, n)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != (comm.FaultAction{}) {
			faults++
		}
	}
	// ~30% fault rate over 2400 messages: essentially impossible to see
	// none unless injection is broken.
	if faults == 0 {
		t.Fatal("no faults injected at 30% aggregate rate")
	}
}

func TestInjectorSeedSensitivity(t *testing.T) {
	const ranks, n = 4, 200
	a := decisions(NewInjector(msgSpec(1), ranks, nil), ranks, n)
	b := decisions(NewInjector(msgSpec(2), ranks, nil), ranks, n)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// TestInjectorOrderIndependence: decisions depend only on the per-pair
// sequence number, not on global interleaving across pairs.
func TestInjectorOrderIndependence(t *testing.T) {
	const ranks, n = 3, 100
	fwd := NewInjector(msgSpec(7), ranks, nil)
	rev := NewInjector(msgSpec(7), ranks, nil)
	type key struct{ src, dst, k int }
	got := map[key]comm.FaultAction{}
	for src := 0; src < ranks; src++ {
		for dst := 0; dst < ranks; dst++ {
			for k := 0; k < n; k++ {
				got[key{src, dst, k}] = fwd.Message(src, dst, 1, 8, 0)
			}
		}
	}
	// Interleave pairs round-robin instead of pair-major.
	for k := 0; k < n; k++ {
		for dst := ranks - 1; dst >= 0; dst-- {
			for src := ranks - 1; src >= 0; src-- {
				if a := rev.Message(src, dst, 1, 8, 0); a != got[key{src, dst, k}] {
					t.Fatalf("(%d->%d #%d) differs under reordering: %+v vs %+v",
						src, dst, k, a, got[key{src, dst, k}])
				}
			}
		}
	}
}

// TestInjectorZeroByteDegradesToDrop: corruption draws on empty payloads
// become drops, so Corrupts only counts copies that really had a bit
// flipped, and both are the sender's.
func TestInjectorZeroByteDegradesToDrop(t *testing.T) {
	spec := &Spec{Seed: 3, Messages: MsgFaults{Corrupt: 1, RetransmitSeconds: 1e-5}}
	in := NewInjector(spec, 2, nil)
	act := in.Message(0, 1, 1, 0, 0)
	if !act.Drop || act.Corrupt {
		t.Fatalf("zero-byte corrupt draw gave %+v, want a drop", act)
	}
	if c := in.Rank(0); c.Corrupts != 0 || c.Drops != 1 {
		t.Fatalf("sender counts %+v, want 0 corruptions and 1 drop", c)
	}
	act = in.Message(0, 1, 1, 64, 0)
	if !act.Corrupt {
		t.Fatalf("non-empty corrupt draw gave %+v", act)
	}
	if c := in.Total(); c.Corrupts != 1 || in.Rank(1) != (Counts{}) {
		t.Fatalf("total %+v, receiver %+v: want 1 corruption, all the sender's", c, in.Rank(1))
	}
}

// TestInjectorWindow: faults only fire inside [from_vt, to_vt).
func TestInjectorWindow(t *testing.T) {
	spec := &Spec{Seed: 3, Messages: MsgFaults{Drop: 1, FromVT: 1.0, ToVT: 2.0}}
	in := NewInjector(spec, 2, nil)
	if a := in.Message(0, 1, 1, 8, 0.5); a != (comm.FaultAction{}) {
		t.Fatalf("fault before window: %+v", a)
	}
	if a := in.Message(0, 1, 1, 8, 1.5); !a.Drop {
		t.Fatalf("no fault inside window: %+v", a)
	}
	if a := in.Message(0, 1, 1, 8, 2.0); a != (comm.FaultAction{}) {
		t.Fatalf("fault at window end: %+v", a)
	}
}
