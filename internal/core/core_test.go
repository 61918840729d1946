package core

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/pauli"
)

func TestArbiterRoutingTable31(t *testing.T) {
	// Thesis Table 3.1: what each operation category forwards.
	u := NewPFU(3)

	// Initialization: forwarded, record reset.
	u.Frame.SetRecord(0, pauli.RecXZ)
	out, err := u.Process(nil, circuit.NewOp(gates.Prep, 0))
	if err != nil || len(out) != 1 || out[0].Gate != gates.Prep {
		t.Fatalf("reset routing: out=%v err=%v", out, err)
	}
	if u.Frame.Record(0) != pauli.RecI {
		t.Error("reset should clear the record")
	}

	// Pauli gate: absorbed, nothing forwarded.
	out, err = u.Process(nil, circuit.NewOp(gates.X, 1))
	if err != nil || len(out) != 0 {
		t.Fatalf("pauli routing: out=%v err=%v", out, err)
	}
	if u.Frame.Record(1) != pauli.RecX {
		t.Errorf("record after X = %v", u.Frame.Record(1))
	}

	// Clifford gate: record mapped, gate forwarded.
	out, err = u.Process(nil, circuit.NewOp(gates.H, 1))
	if err != nil || len(out) != 1 || out[0].Gate != gates.H {
		t.Fatalf("clifford routing: out=%v err=%v", out, err)
	}
	if u.Frame.Record(1) != pauli.RecZ {
		t.Errorf("record after H mapping = %v, want Z", u.Frame.Record(1))
	}

	// Measurement: forwarded untouched.
	out, err = u.Process(nil, circuit.NewOp(gates.Measure, 1))
	if err != nil || len(out) != 1 || out[0].Gate != gates.Measure {
		t.Fatalf("measure routing: out=%v err=%v", out, err)
	}

	// Non-Clifford gate: flush then forward.
	u.Frame.SetRecord(2, pauli.RecX)
	out, err = u.Process(nil, circuit.NewOp(gates.T, 2))
	if err != nil || len(out) != 2 {
		t.Fatalf("non-clifford routing: out=%v err=%v", out, err)
	}
	if out[0].Gate != gates.X || out[1].Gate != gates.T {
		t.Errorf("flush order wrong: %v", out)
	}
	if u.Frame.Record(2) != pauli.RecI {
		t.Error("flush should clear the record")
	}
}

func TestFlushGateMapping(t *testing.T) {
	f := NewFrame(4)
	f.SetRecord(1, pauli.RecX)
	f.SetRecord(2, pauli.RecZ)
	f.SetRecord(3, pauli.RecXZ)
	if g := f.FlushGate(0); g != nil {
		t.Errorf("identity record flushed %v", g)
	}
	if g := f.FlushGate(1); g != gates.X {
		t.Errorf("X record flushed %v", g)
	}
	if g := f.FlushGate(2); g != gates.Z {
		t.Errorf("Z record flushed %v", g)
	}
	if g := f.FlushGate(3); g != gates.Y {
		t.Errorf("XZ record flushed %v, want Y (= XZ up to phase)", g)
	}
	for q := 0; q < 4; q++ {
		if f.Record(q) != pauli.RecI {
			t.Errorf("record %d not cleared after flush", q)
		}
	}
}

func TestMeasurementMapping(t *testing.T) {
	u := NewPFU(2)
	u.Frame.SetRecord(0, pauli.RecX)
	u.Frame.SetRecord(1, pauli.RecZ)
	if got := u.MapMeasurement(0, 0); got != 1 {
		t.Errorf("X record should invert 0 to 1, got %d", got)
	}
	if got := u.MapMeasurement(0, 1); got != 0 {
		t.Errorf("X record should invert 1 to 0, got %d", got)
	}
	if got := u.MapMeasurement(1, 1); got != 1 {
		t.Errorf("Z record should not invert, got %d", got)
	}
	if u.Stats.MeasurementsFlipped != 2 {
		t.Errorf("flip stat = %d, want 2", u.Stats.MeasurementsFlipped)
	}
}

func TestDoubleErrorCancels(t *testing.T) {
	// Thesis Fig 3.7: an X record followed by a combined XZ detection
	// leaves only Z tracked.
	u := NewPFU(1)
	if _, err := u.Process(nil, circuit.NewOp(gates.X, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Process(nil, circuit.NewOp(gates.X, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Process(nil, circuit.NewOp(gates.Z, 0)); err != nil {
		t.Fatal(err)
	}
	if got := u.Frame.Record(0); got != pauli.RecZ {
		t.Errorf("record = %v, want Z", got)
	}
}

func TestCNOTPropagation(t *testing.T) {
	// An X on the control propagates to the target through CNOT — the
	// mechanism that lets tracked data-qubit errors flip ancilla
	// syndromes automatically.
	u := NewPFU(2)
	u.Frame.SetRecord(0, pauli.RecX)
	if _, err := u.Process(nil, circuit.NewOp(gates.CNOT, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if u.Frame.Record(0) != pauli.RecX || u.Frame.Record(1) != pauli.RecX {
		t.Errorf("records after CNOT = %v,%v; want X,X",
			u.Frame.Record(0), u.Frame.Record(1))
	}
}

func TestFlushAll(t *testing.T) {
	u := NewPFU(5)
	u.Frame.SetRecord(0, pauli.RecXZ)
	u.Frame.SetRecord(2, pauli.RecXZ)
	u.Frame.SetRecord(4, pauli.RecXZ)
	c := u.FlushAll()
	if c.NumSlots() != 1 || c.NumOps() != 3 {
		t.Fatalf("flush circuit: slots=%d ops=%d", c.NumSlots(), c.NumOps())
	}
	for _, op := range c.Slots[0].Ops {
		if op.Gate != gates.Y {
			t.Errorf("flush gate %v, want y", op.Gate)
		}
	}
	if u.Frame.PendingCount() != 0 {
		t.Error("frame not cleared by FlushAll")
	}
	// Flushing an empty frame yields an empty circuit.
	if c2 := u.FlushAll(); c2.NumSlots() != 0 {
		t.Error("empty flush should produce no slots")
	}
}

func TestFrameGrowShrink(t *testing.T) {
	f := NewFrame(2)
	f.Grow(3)
	if f.Size() != 5 {
		t.Fatalf("size after grow = %d", f.Size())
	}
	f.SetRecord(4, pauli.RecX)
	if err := f.Shrink(3); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 2 {
		t.Fatalf("size after shrink = %d", f.Size())
	}
	if err := f.Shrink(5); err == nil {
		t.Error("over-shrink should fail")
	}
}

func TestFrameStringListing(t *testing.T) {
	// Thesis Listing 5.5 style rendering.
	f := NewFrame(3)
	f.SetRecord(0, pauli.RecXZ)
	s := f.String()
	if !strings.Contains(s, "0: XZ") || !strings.Contains(s, "1: I") {
		t.Errorf("frame rendering: %q", s)
	}
}

func TestStats(t *testing.T) {
	u := NewPFU(2)
	ops := []circuit.Operation{
		circuit.NewOp(gates.Prep, 0),
		circuit.NewOp(gates.X, 0),
		circuit.NewOp(gates.Z, 1),
		circuit.NewOp(gates.H, 0),
		circuit.NewOp(gates.T, 0),
		circuit.NewOp(gates.Measure, 1),
	}
	for _, op := range ops {
		if _, err := u.Process(nil, op); err != nil {
			t.Fatal(err)
		}
	}
	st := u.Stats
	if st.Resets != 1 || st.PauliAbsorbed != 2 || st.CliffordMapped != 1 ||
		st.NonClifford != 1 || st.FlushGates != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIdentityGateIsNoop(t *testing.T) {
	u := NewPFU(1)
	u.Frame.SetRecord(0, pauli.RecZ)
	out, err := u.Process(nil, circuit.NewOp(gates.I, 0))
	if err != nil || len(out) != 0 {
		t.Fatalf("identity routing: out=%v err=%v", out, err)
	}
	if u.Frame.Record(0) != pauli.RecZ {
		t.Error("identity changed the record")
	}
}

func TestUnknownCliffordFallsBackToFlush(t *testing.T) {
	if HasMappingTable(gates.GateT) || HasMappingTable("weird") {
		t.Error("mapping table claims unsupported gates")
	}
	if !HasMappingTable(gates.GateCNOT) || !HasMappingTable(gates.GateH) {
		t.Error("mapping table missing supported gates")
	}
}

func TestToffoliFlushesAllOperands(t *testing.T) {
	u := NewPFU(3)
	u.Frame.SetRecord(0, pauli.RecX)
	u.Frame.SetRecord(1, pauli.RecZ)
	u.Frame.SetRecord(2, pauli.RecXZ)
	out, err := u.Process(nil, circuit.NewOp(gates.Toffoli, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("want 3 flush gates + toffoli, got %v", out)
	}
	if out[3].Gate != gates.Toffoli {
		t.Errorf("toffoli should come last: %v", out)
	}
	for q := 0; q < 3; q++ {
		if u.Frame.Record(q) != pauli.RecI {
			t.Errorf("record %d not flushed", q)
		}
	}
}

// TestProcessAppends pins the append contract of the arbiter: forwarded
// operations extend dst after its existing entries, a reused dst costs
// no allocation, and a flush gate's capacity-capped operand cannot be
// grown into the qubit slice of the operation that caused the flush.
func TestProcessAppends(t *testing.T) {
	u := NewPFU(3)
	head := circuit.NewOp(gates.H, 2)
	u.Frame.SetRecord(0, pauli.RecX)
	u.Frame.SetRecord(1, pauli.RecZ)
	tof := circuit.NewOp(gates.Toffoli, 0, 1, 2)
	out, err := u.Process([]circuit.Operation{head}, tof)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || out[0].Gate != gates.H || out[1].Gate != gates.X ||
		out[2].Gate != gates.Z || out[3].Gate != gates.Toffoli {
		t.Fatalf("appended ops = %v", out)
	}
	grown := append(out[1].Qubits, 7)
	if grown[0] != 0 || tof.Qubits[1] != 1 {
		t.Errorf("flush operand aliases into the toffoli's qubits: %v", tof.Qubits)
	}
	if out, err = u.Process(out, circuit.NewOp(gates.X, 0)); err != nil || len(out) != 4 {
		t.Errorf("absorbed gate changed dst: %v, %v", out, err)
	}

	ops := []circuit.Operation{
		circuit.NewOp(gates.X, 0),
		circuit.NewOp(gates.CNOT, 0, 1),
		circuit.NewOp(gates.T, 1),
		circuit.NewOp(gates.Measure, 1),
		circuit.NewOp(gates.Prep, 1),
	}
	dst := make([]circuit.Operation, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		for _, op := range ops {
			var err error
			if dst, err = u.Process(dst[:0], op); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Process with a reused dst allocates %v times per pass", allocs)
	}
}
