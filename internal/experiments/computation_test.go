package experiments

import "testing"

func TestComputationLERZeroNoise(t *testing.T) {
	r, err := RunLER(LERConfig{Code: CodeComputation, PER: 0, MaxWindows: 20, MaxLogicalErrors: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.LogicalErrors != 0 || r.Windows != 20 || r.CorrectionGates != 0 {
		t.Errorf("zero-noise computation: %+v", r)
	}
}

func TestComputationLERUnderNoise(t *testing.T) {
	r, err := RunLER(LERConfig{
		Code: CodeComputation, PER: 2e-3, MaxLogicalErrors: 10, MaxWindows: 100000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.LogicalErrors == 0 {
		t.Fatal("no logical errors at p=2e-3")
	}
	if r.LER <= 0 || r.LER > 0.5 {
		t.Errorf("computation LER = %v", r.LER)
	}
	if r.CorrectionGates == 0 {
		t.Error("decoder never corrected")
	}
}

// TestComputationCostsMoreThanIdling: the two-qubit computation with
// transversal CNOT_L gates exposes more error surface than an idling
// qubit; its per-window LER should be at least comparable (typically
// higher).
func TestComputationCostsMoreThanIdling(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison skipped in -short mode")
	}
	const per = 2e-3
	comp, err := RunLER(LERConfig{
		Code: CodeComputation, PER: per, MaxLogicalErrors: 15, MaxWindows: 100000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	idle, err := RunLER(LERConfig{PER: per, MaxLogicalErrors: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if comp.LER < idle.LER/3 {
		t.Errorf("computation LER %.2e implausibly below idle LER %.2e", comp.LER, idle.LER)
	}
}

// TestComputationPFNeutral: the Pauli frame stays LER-neutral in the
// computation setting too (the thesis' conclusion extends beyond the
// idling experiment).
func TestComputationPFNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison skipped in -short mode")
	}
	const per = 3e-3
	without, err := RunLER(LERConfig{
		Code: CodeComputation, PER: per, MaxLogicalErrors: 15, MaxWindows: 100000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	with, err := RunLER(LERConfig{
		Code: CodeComputation, PER: per, WithPauliFrame: true, MaxLogicalErrors: 15, MaxWindows: 100000, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := without.LER / with.LER
	if ratio < 0.33 || ratio > 3 {
		t.Errorf("PF changed computation LER by %.2f (%.2e vs %.2e)", ratio, without.LER, with.LER)
	}
	if with.GatesSavedFrac() <= 0 {
		t.Error("frame saved nothing during computation")
	}
}
