// Package core implements the Pauli Frame Unit (PFU), the primary
// contribution of the paper (thesis Chapter 3): classical memory holding a
// two-bit Pauli record per qubit, the Pauli-frame mapping logic that
// updates records under every operation category, and the Pauli arbiter
// that decides which operations are forwarded to the physical execution
// layer and which are absorbed by the frame (thesis Table 3.1, Fig 3.12).
//
// The five operation categories are handled as specified:
//
//	Initialization  — forward, then reset the record to I.
//	Measurement     — forward, then invert the result when the record
//	                  contains an X component (Table 3.2).
//	Pauli gates     — absorb: map the record only (Table 3.3).
//	Clifford gates  — map the record(s) (Tables 3.4, 3.5) and forward.
//	Non-Clifford    — flush the operand records as physical Pauli gates,
//	                  then forward the gate itself.
package core

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/pauli"
)

// Frame is the Pauli frame: one Pauli record per qubit (thesis §3.2).
// A frame for n qubits is 2n bits of classical state.
type Frame struct {
	recs []pauli.Record
}

// NewFrame creates a frame of n identity records.
func NewFrame(n int) *Frame { return &Frame{recs: make([]pauli.Record, n)} }

// Grow appends n identity records (new qubits).
func (f *Frame) Grow(n int) { f.recs = append(f.recs, make([]pauli.Record, n)...) }

// Shrink drops the m highest-numbered records.
func (f *Frame) Shrink(m int) error {
	if m < 0 || m > len(f.recs) {
		return fmt.Errorf("core: cannot shrink %d records from a frame of %d", m, len(f.recs))
	}
	f.recs = f.recs[:len(f.recs)-m]
	return nil
}

// Size returns the number of records.
func (f *Frame) Size() int { return len(f.recs) }

func (f *Frame) check(q int) {
	if q < 0 || q >= len(f.recs) {
		panic(fmt.Sprintf("core: qubit %d outside frame of %d records", q, len(f.recs)))
	}
}

// Record returns the record of qubit q.
func (f *Frame) Record(q int) pauli.Record {
	f.check(q)
	return f.recs[q]
}

// SetRecord overwrites the record of qubit q (used by tests and by the
// architecture model's symbol-table moves).
func (f *Frame) SetRecord(q int, r pauli.Record) {
	f.check(q)
	f.recs[q] = r
}

// Reset clears the record of qubit q to I; called on initialization
// (thesis §3.1, element 1).
func (f *Frame) Reset(q int) {
	f.check(q)
	f.recs[q] = pauli.RecI
}

// Clear resets every record to I; the stack-reuse fast path of the
// Monte-Carlo drivers (one allocation-free call instead of per-qubit
// Resets).
func (f *Frame) Clear() {
	for i := range f.recs {
		f.recs[i] = pauli.RecI
	}
}

// FlipsMeasurement reports whether the measurement result of qubit q must
// be inverted (thesis Table 3.2).
func (f *Frame) FlipsMeasurement(q int) bool {
	f.check(q)
	return f.recs[q].FlipsMeasurement()
}

// TrackPauli absorbs a Pauli gate into the record of qubit q
// (thesis Table 3.3).
func (f *Frame) TrackPauli(name gates.Name, q int) error {
	f.check(q)
	switch name {
	case gates.GateI:
		// Identity tracks nothing.
	case gates.GateX:
		f.recs[q] = f.recs[q].MulPauli(pauli.X)
	case gates.GateY:
		f.recs[q] = f.recs[q].MulPauli(pauli.Y)
	case gates.GateZ:
		f.recs[q] = f.recs[q].MulPauli(pauli.Z)
	default:
		return fmt.Errorf("core: %s is not a Pauli gate", name)
	}
	return nil
}

// MapClifford conjugates the records of the operand qubits by a Clifford
// gate (thesis Tables 3.4 and 3.5). Gates without a mapping rule are
// rejected; the arbiter treats them as non-Clifford.
func (f *Frame) MapClifford(name gates.Name, qubits []int) error {
	for _, q := range qubits {
		f.check(q)
	}
	switch name {
	case gates.GateH:
		f.recs[qubits[0]] = f.recs[qubits[0]].MapH()
	case gates.GateS:
		f.recs[qubits[0]] = f.recs[qubits[0]].MapS()
	case gates.GateSdg:
		f.recs[qubits[0]] = f.recs[qubits[0]].MapSdg()
	case gates.GateCNOT:
		f.recs[qubits[0]], f.recs[qubits[1]] = pauli.MapCNOT(f.recs[qubits[0]], f.recs[qubits[1]])
	case gates.GateCZ:
		f.recs[qubits[0]], f.recs[qubits[1]] = pauli.MapCZ(f.recs[qubits[0]], f.recs[qubits[1]])
	case gates.GateSWAP:
		f.recs[qubits[0]], f.recs[qubits[1]] = pauli.MapSWAP(f.recs[qubits[0]], f.recs[qubits[1]])
	default:
		return fmt.Errorf("core: no Clifford mapping table for %s", name)
	}
	return nil
}

// HasMappingTable reports whether the frame can map records through the
// gate without flushing. This is the arbiter's Clifford test: only gates
// with an implemented mapping table qualify (thesis §5.2.1).
func HasMappingTable(name gates.Name) bool {
	switch name {
	case gates.GateH, gates.GateS, gates.GateSdg, gates.GateCNOT, gates.GateCZ, gates.GateSWAP:
		return true
	default:
		return false
	}
}

// FlushGate returns the physical gate that realizes the pending record of
// qubit q — X, Z, or Y for the combined XZ record (equal to XZ up to the
// discarded global phase i) — and resets the record to I. It returns nil
// when nothing is pending.
func (f *Frame) FlushGate(q int) *gates.Gate {
	f.check(q)
	r := f.recs[q]
	f.recs[q] = pauli.RecI
	switch r {
	case pauli.RecX:
		return gates.X
	case pauli.RecZ:
		return gates.Z
	case pauli.RecXZ:
		return gates.Y
	}
	return nil
}

// String renders the frame in the style of thesis Listing 5.5.
func (f *Frame) String() string {
	s := "Pauli frame with Pauli records:\n"
	for q, r := range f.recs {
		s += fmt.Sprintf("  %d: %s\n", q, r)
	}
	return s
}

// AppendRecords appends a copy of all records to dst and returns the
// extended slice; with a reused dst it snapshots the frame without
// allocating.
func (f *Frame) AppendRecords(dst []pauli.Record) []pauli.Record {
	return append(dst, f.recs...)
}

// RestoreRecords overwrites the records with a snapshot taken by
// AppendRecords on a frame of the same size.
func (f *Frame) RestoreRecords(snap []pauli.Record) {
	if len(snap) != len(f.recs) {
		panic(fmt.Sprintf("core: snapshot of %d records restored into a frame of %d", len(snap), len(f.recs)))
	}
	copy(f.recs, snap)
}

// PendingCount returns the number of non-identity records.
func (f *Frame) PendingCount() int {
	n := 0
	for _, r := range f.recs {
		if !r.IsIdentity() {
			n++
		}
	}
	return n
}

// Stats counts what the arbiter has done with the operation stream; the
// savings experiments of thesis Figs 5.25–5.26 read these.
type Stats struct {
	// PauliAbsorbed counts Pauli gates absorbed into the frame.
	PauliAbsorbed int
	// CliffordMapped counts Clifford gates that mapped records.
	CliffordMapped int
	// FlushGates counts physical Pauli gates emitted by flushes.
	FlushGates int
	// NonClifford counts non-Clifford gates processed.
	NonClifford int
	// MeasurementsFlipped counts measurement results inverted.
	MeasurementsFlipped int
	// Resets counts record resets from initialization operations.
	Resets int
}

// PFU couples a Pauli frame with the Pauli arbiter's routing logic
// (thesis Fig 3.11): Process consumes one operation from the stream and
// appends the operations to forward to the physical execution layer.
type PFU struct {
	Frame *Frame
	Stats Stats
}

// NewPFU creates a Pauli frame unit for n qubits.
func NewPFU(n int) *PFU { return &PFU{Frame: NewFrame(n)} }

// Process routes one operation per thesis Table 3.1 / Fig 3.12 and
// appends the physical operations to forward downward to dst, in order,
// returning the extended slice. Pauli gates append nothing; non-Clifford
// gates append the flushed Pauli gates followed by the gate itself. With
// a reused dst, Process allocates nothing: a flush gate's operand is a
// capacity-capped window of op's own qubit slice. On error dst is
// returned unextended.
func (u *PFU) Process(dst []circuit.Operation, op circuit.Operation) ([]circuit.Operation, error) {
	g := op.Gate
	switch g.Class {
	case gates.ClassReset:
		// Step 1: forward the reset; step 2: record to I (Fig 3.12a).
		u.Frame.Reset(op.Qubits[0])
		u.Stats.Resets++
		return append(dst, op), nil
	case gates.ClassMeasure:
		// Forward untouched; the result is mapped on the way back up
		// via MapMeasurement (Fig 3.12b).
		return append(dst, op), nil
	case gates.ClassPauli:
		// Absorb (Fig 3.12c).
		if err := u.Frame.TrackPauli(g.Name, op.Qubits[0]); err != nil {
			return dst, err
		}
		u.Stats.PauliAbsorbed++
		return dst, nil
	case gates.ClassClifford:
		if !HasMappingTable(g.Name) {
			return u.flushAndForward(dst, op), nil
		}
		// Map records, then forward (Fig 3.12d).
		if err := u.Frame.MapClifford(g.Name, op.Qubits); err != nil {
			return dst, err
		}
		u.Stats.CliffordMapped++
		return append(dst, op), nil
	case gates.ClassNonClifford:
		return u.flushAndForward(dst, op), nil
	}
	return dst, fmt.Errorf("core: unknown operation class %v", g.Class)
}

// flushAndForward implements Fig 3.12e: flush the operand records as
// physical Pauli gates, then forward the original gate.
func (u *PFU) flushAndForward(dst []circuit.Operation, op circuit.Operation) []circuit.Operation {
	for i, q := range op.Qubits {
		if g := u.Frame.FlushGate(q); g != nil {
			dst = append(dst, circuit.Operation{Gate: g, Qubits: op.Qubits[i : i+1 : i+1]})
			u.Stats.FlushGates++
		}
	}
	u.Stats.NonClifford++
	return append(dst, op)
}

// MapMeasurement maps a raw measurement result of qubit q through the
// frame (thesis Table 3.2), returning the corrected result.
func (u *PFU) MapMeasurement(q, value int) int {
	if u.Frame.FlipsMeasurement(q) {
		u.Stats.MeasurementsFlipped++
		return 1 - value
	}
	return value
}

// FlushAll emits the pending Pauli gates of every qubit as a circuit of
// single-gate time slots and clears the frame; used before retrieving a
// full quantum state for comparison (thesis §5.2.2).
func (u *PFU) FlushAll() *circuit.Circuit {
	c := circuit.New()
	slot := -1
	for q := 0; q < u.Frame.Size(); q++ {
		if g := u.Frame.FlushGate(q); g != nil {
			if slot < 0 {
				slot = c.AppendSlot()
			}
			c.AddToSlot(slot, g, q)
			u.Stats.FlushGates++
		}
	}
	return c
}
