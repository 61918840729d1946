package surface

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/decoder"
	"repro/internal/gates"
	"repro/internal/qpdo"
)

// AncillaMode selects how ancilla qubits are provisioned (thesis §5.1.3:
// "Every ninja star can have a unique set of ancilla qubits, or one set
// of ancilla qubits can be shared over all ninja stars").
type AncillaMode int

// Ancilla modes.
const (
	// AncillaDedicated gives each star its own eight ancillas and runs
	// the parallel 8-time-slot ESM of Table 5.8.
	AncillaDedicated AncillaMode = iota
	// AncillaSharedSingle shares one ancilla qubit across all stars and
	// serializes the stabilizer checks; used to keep state-vector
	// verification of two-star logical gates within 19 qubits.
	AncillaSharedSingle
)

// Star is one ninja-star logical qubit: the physical placement of its
// qubits plus its run-time properties (thesis Table 5.2).
type Star struct {
	// Data maps relative data-qubit indices 0..8 to physical indices.
	Data [NumData]int
	// Anc maps relative ancilla indices 0..7 (for qubits 9..16 of the
	// layout) to physical indices. In shared-single mode all entries
	// alias the same physical qubit.
	Anc [NumAncilla]int
	// Mode is the ancilla provisioning mode.
	Mode AncillaMode

	// Rotation is the lattice orientation (toggled by logical Hadamard).
	Rotation Rotation
	// Dance selects full or Z-only ESM rounds.
	Dance DanceMode
	// State is the classically known logical value (0, 1 or x).
	State qpdo.BinaryState

	// esmCache memoizes the ESM circuit per (Rotation, Dance). The
	// circuit is a pure function of those two fields plus Mode and the
	// physical indices, which are fixed after creation, and every layer
	// in the stack treats added circuits as read-only (the ownership
	// rule of qpdo.Core.Add), so one instance per variant can be
	// replayed every round. ESM dominates the LER hot path — without
	// the cache each round rebuilds an 8-slot, 48-operation circuit.
	esmCache [2][2]*circuit.Circuit
	// probeZL and probeXL memoize the logical probes per Rotation on
	// the same grounds; the windows protocol runs one after every clean
	// diagnostic round.
	probeZL, probeXL [2]*circuit.Circuit
}

// phys translates a relative qubit index (0..16) to a physical index.
func (s *Star) phys(rel int) int {
	if rel < NumData {
		return s.Data[rel]
	}
	return s.Anc[rel-NumData]
}

// activeChecks returns the check groups participating in the current
// dance mode, X-type first.
func (s *Star) activeChecks() (xType, zType []checkSpec) {
	z := ZChecks(s.Rotation)
	if s.Dance == DanceZOnly {
		return nil, z
	}
	return XChecks(s.Rotation), z
}

// SyndromeRound holds the ancilla outcomes of one ESM round, keyed by
// hardware ancilla group (A = layout ancillas 9..12, B = 13..16). Keying
// by hardware rather than by current role lets decoder state survive
// lattice rotations: the supports of a hardware group never change.
type SyndromeRound struct {
	A, B decoder.Syndrome
	// HasA/HasB report whether the group was active this round.
	HasA, HasB bool
}

// isGroupA reports whether a check belongs to hardware group A.
func isGroupA(c checkSpec) bool { return c.anc < 13 }

// ESMCircuit builds the error-syndrome-measurement circuit for the
// star's current orientation and dance mode. In dedicated mode this is
// the parallel 8-slot circuit of thesis Table 5.8 (48 operations for a
// full round); in shared-single mode the checks are serialized on the
// shared ancilla. The companion parse order is always: X-type checks in
// group order, then Z-type checks.
func (s *Star) ESMCircuit() *circuit.Circuit {
	if c := s.esmCache[s.Rotation][s.Dance]; c != nil {
		return c
	}
	var c *circuit.Circuit
	if s.Mode == AncillaSharedSingle {
		c = s.esmShared()
	} else {
		c = s.esmParallel()
	}
	s.esmCache[s.Rotation][s.Dance] = c
	return c
}

func (s *Star) esmParallel() *circuit.Circuit {
	xChecks, zChecks := s.activeChecks()
	c := circuit.New()
	// Slot 1: reset X-type ancillas.
	if len(xChecks) > 0 {
		slot := c.AppendSlot()
		for _, ck := range xChecks {
			c.AddToSlot(slot, gates.Prep, s.phys(ck.anc))
		}
	}
	// Slot 2: reset Z-type ancillas, Hadamard on X-type ancillas.
	slot := c.AppendSlot()
	for _, ck := range zChecks {
		c.AddToSlot(slot, gates.Prep, s.phys(ck.anc))
	}
	for _, ck := range xChecks {
		c.AddToSlot(slot, gates.H, s.phys(ck.anc))
	}
	// Slots 3-6: interleaved CNOTs.
	for step := 0; step < 4; step++ {
		slot := c.AppendSlot()
		for _, ck := range xChecks {
			if d := cnotSchedule(ck)[step]; d >= 0 {
				c.AddToSlot(slot, gates.CNOT, s.phys(ck.anc), s.phys(d))
			}
		}
		for _, ck := range zChecks {
			if d := cnotSchedule(ck)[step]; d >= 0 {
				c.AddToSlot(slot, gates.CNOT, s.phys(d), s.phys(ck.anc))
			}
		}
	}
	// Slot 7: Hadamard on X-type ancillas.
	if len(xChecks) > 0 {
		slot := c.AppendSlot()
		for _, ck := range xChecks {
			c.AddToSlot(slot, gates.H, s.phys(ck.anc))
		}
	}
	// Slot 8: measure all active ancillas, X-type first.
	slot = c.AppendSlot()
	for _, ck := range xChecks {
		c.AddToSlot(slot, gates.Measure, s.phys(ck.anc))
	}
	for _, ck := range zChecks {
		c.AddToSlot(slot, gates.Measure, s.phys(ck.anc))
	}
	return c
}

func (s *Star) esmShared() *circuit.Circuit {
	xChecks, zChecks := s.activeChecks()
	c := circuit.New()
	anc := s.Anc[0]
	appendCheck := func(ck checkSpec, xType bool) {
		c.Add(gates.Prep, anc)
		if xType {
			c.Add(gates.H, anc)
		}
		for _, d := range cnotSchedule(ck) {
			if d < 0 {
				continue
			}
			if xType {
				c.Add(gates.CNOT, anc, s.phys(d))
			} else {
				c.Add(gates.CNOT, s.phys(d), anc)
			}
		}
		if xType {
			c.Add(gates.H, anc)
		}
		c.Add(gates.Measure, anc)
	}
	for _, ck := range xChecks {
		appendCheck(ck, true)
	}
	for _, ck := range zChecks {
		appendCheck(ck, false)
	}
	return c
}

// ParseESM extracts the syndrome round from the trailing measurements of
// an Execute result produced by running ESMCircuit alone.
func (s *Star) ParseESM(res *qpdo.Result) (SyndromeRound, error) {
	xChecks, zChecks := s.activeChecks()
	want := len(xChecks) + len(zChecks)
	if len(res.Measurements) < want {
		return SyndromeRound{}, fmt.Errorf("surface: ESM produced %d measurements, want %d",
			len(res.Measurements), want)
	}
	ms := res.Measurements[len(res.Measurements)-want:]
	var round SyndromeRound
	record := func(ck checkSpec, value int) {
		group := &round.B
		has := &round.HasB
		idx := ck.anc - 13
		if isGroupA(ck) {
			group = &round.A
			has = &round.HasA
			idx = ck.anc - 9
		}
		*has = true
		if value == 1 {
			*group = group.SetBit(idx)
		}
	}
	i := 0
	for _, ck := range xChecks {
		record(ck, ms[i].Value)
		i++
	}
	for _, ck := range zChecks {
		record(ck, ms[i].Value)
		i++
	}
	return round, nil
}

// ResetCircuit returns the transversal data-qubit reset slot.
func (s *Star) ResetCircuit() *circuit.Circuit {
	c := circuit.New()
	slot := c.AppendSlot()
	for _, q := range s.Data {
		c.AddToSlot(slot, gates.Prep, q)
	}
	return c
}

// ChainCircuit returns a one-slot chain of the given Pauli gate over the
// listed relative data qubits (logical X and Z, thesis Fig 2.4).
func (s *Star) ChainCircuit(g *gates.Gate, chain []int) *circuit.Circuit {
	c := circuit.New()
	slot := c.AppendSlot()
	for _, d := range chain {
		c.AddToSlot(slot, g, s.phys(d))
	}
	return c
}

// TransversalCircuit returns a one-slot transversal single-qubit gate
// over all data qubits (logical Hadamard).
func (s *Star) TransversalCircuit(g *gates.Gate) *circuit.Circuit {
	c := circuit.New()
	slot := c.AppendSlot()
	for _, q := range s.Data {
		c.AddToSlot(slot, g, q)
	}
	return c
}

// MeasureCircuit returns the transversal data measurement slot (nine-
// qubit logical measurement, thesis §5.1.4).
func (s *Star) MeasureCircuit() *circuit.Circuit {
	c := circuit.New()
	slot := c.AppendSlot()
	for _, q := range s.Data {
		c.AddToSlot(slot, gates.Measure, q)
	}
	return c
}

// TwoQubitTransversal builds the one-slot transversal two-qubit logical
// gate between stars a (first operand) and b, using the rotated pairing
// when required (thesis §2.6.1).
func TwoQubitTransversal(g *gates.Gate, a, b *Star, rotatedPairing bool) *circuit.Circuit {
	c := circuit.New()
	slot := c.AppendSlot()
	for _, pair := range transversalPairs(rotatedPairing) {
		c.AddToSlot(slot, g, a.phys(pair[0]), b.phys(pair[1]))
	}
	return c
}

// ProbeZLCircuit returns the Z_L stabilizer probe of thesis Fig 5.10a:
// an ancilla-assisted measurement of the Z chain that detects logical X
// errors without disturbing the encoded state. The star's first ancilla
// is reused as the probe ancilla (it is reset first). The circuit is
// built once per rotation and shared; callers must not modify it.
func (s *Star) ProbeZLCircuit() *circuit.Circuit {
	if c := s.probeZL[s.Rotation]; c != nil {
		return c
	}
	anc := s.Anc[0]
	c := circuit.New()
	c.Add(gates.Prep, anc)
	for _, d := range LogicalZ(s.Rotation) {
		c.Add(gates.CNOT, s.phys(d), anc)
	}
	c.Add(gates.Measure, anc)
	s.probeZL[s.Rotation] = c
	return c
}

// ProbeXLCircuit returns the X_L stabilizer probe of thesis Fig 5.10b,
// detecting logical Z errors on a |+⟩_L-type state; memoized like
// ProbeZLCircuit.
func (s *Star) ProbeXLCircuit() *circuit.Circuit {
	if c := s.probeXL[s.Rotation]; c != nil {
		return c
	}
	anc := s.Anc[0]
	c := circuit.New()
	c.Add(gates.Prep, anc)
	c.Add(gates.H, anc)
	for _, d := range LogicalX(s.Rotation) {
		c.Add(gates.CNOT, anc, s.phys(d))
	}
	c.Add(gates.H, anc)
	c.Add(gates.Measure, anc)
	s.probeXL[s.Rotation] = c
	return c
}
