// Package fault is the deterministic fault-injection plane of the
// mini-app: a seeded scenario spec schedules rank crashes and transient
// stalls against step numbers and message-level faults (drop-with-
// retransmit, payload corruption, delay) against virtual time, and a
// recovery runner drives the solver's step loop with heartbeat-based
// failure detection, periodic auto-checkpoints, and collective rollback
// recovery over the surviving ranks.
//
// CMT-bone exists so the production code's behaviour can be studied under
// conditions CMT-nek cannot risk; this package supplies the conditions.
// Everything is deterministic: message faults are pure functions of
// (seed, sender, receiver, per-pair sequence number), crash and stall
// schedules are explicit, and detection is event-driven on the virtual
// runtime rather than wall-clock timeouts — so a chaos run replays
// bit-identically under any goroutine interleaving.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// CrashSpec kills one rank at the start of a step (before the step's
// heartbeat round, so survivors detect and recover in the same step).
type CrashSpec struct {
	// Rank is the victim in world numbering.
	Rank int `json:"rank"`
	// Step is the step at which the rank dies. It must be >= 1 (recovery
	// rolls back to the latest auto-checkpoint, and the earliest one is
	// written at step 0) and a multiple of the runner's heartbeat period.
	Step int `json:"step"`
}

// StallSpec freezes one rank for a stretch of modeled time at the start
// of a step — a transient slow rank (OS jitter, thermal throttling),
// priced straight onto the virtual clock so its cost shows up in modeled
// makespan and in every peer's wait time.
type StallSpec struct {
	Rank    int     `json:"rank"`
	Step    int     `json:"step"`
	Seconds float64 `json:"seconds"`
}

// MsgFaults configures message-level fault rates. Each wire message
// (point-to-point sends and the rounds inside collectives) independently
// suffers at most one fault, chosen deterministically from the seed and
// the message's (sender, receiver, sequence) identity.
type MsgFaults struct {
	// Drop is the probability a message's first copy is lost and only
	// its retransmission (RetransmitSeconds later) arrives.
	Drop float64 `json:"drop,omitempty"`
	// Corrupt is the probability a message's first copy arrives with one
	// payload bit flipped. The per-message CRC detects the damage and
	// the clean retransmission is awaited, so corruption is never
	// absorbed silently.
	Corrupt float64 `json:"corrupt,omitempty"`
	// Delay is the probability a message is delayed by DelaySeconds.
	Delay float64 `json:"delay,omitempty"`
	// DelaySeconds is the modeled delay of a delayed message.
	DelaySeconds float64 `json:"delay_seconds,omitempty"`
	// RetransmitSeconds is the modeled timeout-and-resend penalty of a
	// dropped or corrupted copy (default comm.DefaultRetransmitVT).
	RetransmitSeconds float64 `json:"retransmit_seconds,omitempty"`
	// FromVT/ToVT bound the virtual-time window in which message faults
	// fire; both zero means always.
	FromVT float64 `json:"from_vt,omitempty"`
	ToVT   float64 `json:"to_vt,omitempty"`
}

// Spec is one fault scenario, loadable from JSON (see Load).
type Spec struct {
	// Seed drives every probabilistic decision; the same seed replays
	// the same faults.
	Seed     int64       `json:"seed"`
	Crashes  []CrashSpec `json:"crashes,omitempty"`
	Stalls   []StallSpec `json:"stalls,omitempty"`
	Messages MsgFaults   `json:"messages,omitempty"`
}

// Parse decodes and validates a JSON scenario spec. Unknown fields are
// rejected so a typoed scenario cannot silently become a no-op.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: parse spec: %w", err)
	}
	// A second document in the stream is garbage, not configuration.
	if dec.More() {
		return nil, fmt.Errorf("fault: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads a scenario from a file path, or — when the argument starts
// with '{' — parses it as inline JSON, so quick scenarios fit on the
// command line.
func Load(pathOrJSON string) (*Spec, error) {
	if strings.HasPrefix(strings.TrimSpace(pathOrJSON), "{") {
		return Parse([]byte(pathOrJSON))
	}
	data, err := os.ReadFile(pathOrJSON)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return Parse(data)
}

// Validate checks internal consistency. Rank bounds are checked later,
// against the run (CheckRun), since the spec alone does not know the
// run size.
func (s *Spec) Validate() error {
	m := s.Messages
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", m.Drop}, {"corrupt", m.Corrupt}, {"delay", m.Delay}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: messages.%s rate %g outside [0,1]", p.name, p.v)
		}
	}
	if sum := m.Drop + m.Corrupt + m.Delay; sum > 1 {
		return fmt.Errorf("fault: message fault rates sum to %g > 1", sum)
	}
	if m.DelaySeconds < 0 || m.RetransmitSeconds < 0 {
		return fmt.Errorf("fault: negative message fault durations")
	}
	if m.Delay > 0 && m.DelaySeconds == 0 {
		return fmt.Errorf("fault: messages.delay set without delay_seconds")
	}
	if m.FromVT < 0 || m.ToVT < 0 || (m.ToVT != 0 && m.ToVT < m.FromVT) {
		return fmt.Errorf("fault: message fault window [%g,%g] invalid", m.FromVT, m.ToVT)
	}
	seen := make(map[int]bool)
	for _, c := range s.Crashes {
		if c.Rank < 0 {
			return fmt.Errorf("fault: crash rank %d negative", c.Rank)
		}
		if c.Step < 1 {
			return fmt.Errorf("fault: crash of rank %d at step %d; crashes need step >= 1 (a checkpoint must precede them)", c.Rank, c.Step)
		}
		if seen[c.Rank] {
			return fmt.Errorf("fault: rank %d crashes more than once", c.Rank)
		}
		seen[c.Rank] = true
	}
	for _, st := range s.Stalls {
		if st.Rank < 0 || st.Step < 0 {
			return fmt.Errorf("fault: stall rank %d step %d invalid", st.Rank, st.Step)
		}
		if st.Seconds < 0 {
			return fmt.Errorf("fault: stall of rank %d has negative duration", st.Rank)
		}
	}
	return nil
}

// CheckRun checks the scenario against a run of p ranks with the given
// heartbeat period: crash and stall ranks in [0,p), p >= 2 with crashes,
// crash steps on heartbeat steps, and at least one rank that never
// crashes (the survivors finish the run and print its summary). NewRunner
// calls it.
func (s *Spec) CheckRun(p, heartbeatEvery int) error {
	crashed := make(map[int]bool, len(s.Crashes))
	for _, c := range s.Crashes {
		crashed[c.Rank] = true
		if c.Rank >= p {
			return fmt.Errorf("fault: crash rank %d outside [0,%d)", c.Rank, p)
		}
		if p < 2 {
			return fmt.Errorf("fault: crash scenarios need at least 2 ranks")
		}
		if c.Step%heartbeatEvery != 0 {
			return fmt.Errorf("fault: crash at step %d is not a multiple of the heartbeat period %d; survivors would detect it late",
				c.Step, heartbeatEvery)
		}
	}
	if p > 0 && len(crashed) == p {
		return fmt.Errorf("fault: every one of the %d ranks crashes; a scenario must leave at least one rank that survives to finish the run", p)
	}
	for _, st := range s.Stalls {
		if st.Rank >= p {
			return fmt.Errorf("fault: stall rank %d outside [0,%d)", st.Rank, p)
		}
	}
	return nil
}
