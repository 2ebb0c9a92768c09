package fault

import "testing"

// TestOverlapChaosRecovery runs the full crash-and-recover scenario with
// compute/communication overlap enabled: message faults turn the comm
// layer's CRC framing on (one matching rule, posting order, on every
// communicator, framed or not), rank 2's death unwinds a split-phase
// exchange, and the survivors rebuild the solver — and with it the
// interior/boundary sets and Pending handles — on the shrunken
// communicator. The final state must be bit-identical to the
// blocking-exchange ground truth.
func TestOverlapChaosRecovery(t *testing.T) {
	for _, seed := range []int64{101, 404} {
		chaosScenario(t, seed, true)
	}
}
