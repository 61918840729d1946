package core

import (
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/pauli"
	"repro/internal/statevec"
)

// recordOps renders a record pair as physical gate applications.
func applyRecords(s *statevec.State, recs []pauli.Record) {
	for q, r := range recs {
		if r.X {
			s.ApplyGate(gates.X, q)
		}
		if r.Z {
			s.ApplyGate(gates.Z, q)
		}
	}
}

// TestMappingTablesMatchConjugation is the physics ground truth for
// thesis Tables 3.4/3.5: for every Clifford generator C and every record
// configuration R, the states C·R|ψ⟩ and R′·C|ψ⟩ must agree up to global
// phase, where R′ is the frame-mapped record. Randomized non-stabilizer
// input states |ψ⟩ make the check basis-independent.
func TestMappingTablesMatchConjugation(t *testing.T) {
	singles := []gates.Name{gates.GateH, gates.GateS, gates.GateSdg}
	twos := []gates.Name{gates.GateCNOT, gates.GateCZ, gates.GateSWAP}
	rng := rand.New(rand.NewSource(123))
	prep := func() *statevec.State {
		s := statevec.New(2, rng)
		// A generic two-qubit state: Haar-ish via a few parametrized ops.
		s.ApplyGate(gates.H, 0)
		s.ApplyGate(gates.RZ(rng.Float64()*6), 0)
		s.ApplyGate(gates.H, 1)
		s.ApplyGate(gates.RZ(rng.Float64()*6), 1)
		s.ApplyGate(gates.CNOT, 0, 1)
		s.ApplyGate(gates.RZ(rng.Float64()*6), 1)
		return s
	}

	for _, name := range singles {
		g := gates.MustLookup(name)
		for _, r0 := range pauli.AllRecords() {
			for _, r1 := range pauli.AllRecords() {
				base := prep()
				// Path A: pending records applied physically, then C on q0.
				a := base.Clone()
				applyRecords(a, []pauli.Record{r0, r1})
				a.ApplyGate(g, 0)
				// Path B: C first, then the mapped records.
				f := NewFrame(2)
				f.SetRecord(0, r0)
				f.SetRecord(1, r1)
				if err := f.MapClifford(name, []int{0}); err != nil {
					t.Fatal(err)
				}
				b := base.Clone()
				b.ApplyGate(g, 0)
				applyRecords(b, f.AppendRecords(nil))
				if ok, _ := statevec.EqualUpToGlobalPhase(a, b, 1e-9); !ok {
					t.Errorf("%s with records (%v,%v): conjugation mismatch", name, r0, r1)
				}
			}
		}
	}
	for _, name := range twos {
		g := gates.MustLookup(name)
		for _, r0 := range pauli.AllRecords() {
			for _, r1 := range pauli.AllRecords() {
				base := prep()
				a := base.Clone()
				applyRecords(a, []pauli.Record{r0, r1})
				a.ApplyGate(g, 0, 1)
				f := NewFrame(2)
				f.SetRecord(0, r0)
				f.SetRecord(1, r1)
				if err := f.MapClifford(name, []int{0, 1}); err != nil {
					t.Fatal(err)
				}
				b := base.Clone()
				b.ApplyGate(g, 0, 1)
				applyRecords(b, f.AppendRecords(nil))
				if ok, _ := statevec.EqualUpToGlobalPhase(a, b, 1e-9); !ok {
					t.Errorf("%s with records (%v,%v): conjugation mismatch", name, r0, r1)
				}
			}
		}
	}
}

// TestMeasurementRuleMatchesPhysics verifies thesis Table 3.2 against the
// state vector: the frame-corrected outcome distribution of a qubit with
// a pending record equals the distribution of the physically-applied
// record.
func TestMeasurementRuleMatchesPhysics(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for _, r := range pauli.AllRecords() {
		// Reference probability with the record applied physically.
		ref := statevec.New(1, rng)
		ref.ApplyGate(gates.H, 0)
		ref.ApplyGate(gates.RZ(0.9), 0)
		ref.ApplyGate(gates.H, 0)
		refState := ref.Clone()
		applyRecords(refState, []pauli.Record{r})
		wantP1 := refState.ProbOne(0)
		// Frame path: raw probability, then the Table 3.2 flip.
		rawP1 := ref.ProbOne(0)
		gotP1 := rawP1
		if r.FlipsMeasurement() {
			gotP1 = 1 - rawP1
		}
		if diff := gotP1 - wantP1; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("record %v: corrected P(1)=%v, physical P(1)=%v", r, gotP1, wantP1)
		}
	}
}
