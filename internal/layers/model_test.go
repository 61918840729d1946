package layers

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qpdo"
)

func TestModelConstructors(t *testing.T) {
	d := Depolarizing(3e-3)
	if !approxEq(d.PX, 1e-3) || !approxEq(d.PY, 1e-3) || !approxEq(d.PZ, 1e-3) {
		t.Errorf("depolarizing split: %+v", d)
	}
	if !d.CorrelatedTwoQubit || !approxEq(d.PMeas, 3e-3) {
		t.Errorf("depolarizing extras: %+v", d)
	}

	b := Biased(1e-2, 9)
	if !approxEq(b.TotalSingle(), 1e-2) {
		t.Errorf("biased total: %v", b.TotalSingle())
	}
	if !approxEq(b.PZ/(b.PX+b.PY), 9) {
		t.Errorf("bias ratio: %v", b.PZ/(b.PX+b.PY))
	}

	r := Relaxation(4e-3, 2e-3)
	if !approxEq(r.PX, 1e-3) || !approxEq(r.PY, 1e-3) || !approxEq(r.PZ, 2e-3) {
		t.Errorf("relaxation split: %+v", r)
	}

	if err := (Model{PX: -0.1}).Validate(); err == nil {
		t.Error("negative probability accepted")
	}
	for _, m := range []Model{{PX: math.NaN()}, {PZ: math.NaN()}, {PMeas: math.NaN()}, Depolarizing(math.NaN())} {
		if err := m.Validate(); err == nil {
			t.Errorf("NaN probability accepted: %+v", m)
		}
	}
	if err := (Model{PX: 0.5, PY: 0.4, PZ: 0.3}).Validate(); err == nil {
		t.Error("total above 1 accepted")
	}
}

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestBiasedModelSkewsErrors(t *testing.T) {
	// Drive many idle slots through a strongly Z-biased layer and count
	// the error types via stats and the final stabilizer signs.
	qx := NewQxCore(rand.New(rand.NewSource(30)))
	el := NewErrorLayerModel(qx, Biased(0.3, 20), rand.New(rand.NewSource(31)))
	if err := el.CreateQubits(1); err != nil {
		t.Fatal(err)
	}
	c := circuit.New()
	for i := 0; i < 400; i++ {
		c.Add(gates.I, 0)
	}
	if _, err := qpdo.Run(el, c); err != nil {
		t.Fatal(err)
	}
	if el.Stats.Total() < 50 {
		t.Fatalf("too few errors injected: %d", el.Stats.Total())
	}
}

func TestRelaxationModelRuns(t *testing.T) {
	ch := NewChpCore(rand.New(rand.NewSource(32)))
	el := NewErrorLayerModel(ch, Relaxation(0.5, 0.3), rand.New(rand.NewSource(33)))
	if err := el.CreateQubits(2); err != nil {
		t.Fatal(err)
	}
	c := circuit.New().Add(gates.H, 0).Add(gates.CNOT, 0, 1).Add(gates.Measure, 0)
	if _, err := qpdo.Run(el, c); err != nil {
		t.Fatal(err)
	}
	if el.Stats.OpsSeen == 0 {
		t.Error("channel never applied")
	}
}

func TestUncorrelatedTwoQubitChannel(t *testing.T) {
	// A non-correlated model applies the single-qubit channel per
	// operand: with PX=1 both operands of every CNOT get an X.
	m := Model{Name: "allX", PX: 1}
	qx := NewQxCore(rand.New(rand.NewSource(34)))
	el := NewErrorLayerModel(qx, m, rand.New(rand.NewSource(35)))
	if err := el.CreateQubits(2); err != nil {
		t.Fatal(err)
	}
	if _, err := qpdo.Run(el, circuit.New().Add(gates.CNOT, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if el.Stats.TwoQubitErrors != 2 {
		t.Errorf("two-qubit operand errors = %d, want 2", el.Stats.TwoQubitErrors)
	}
	// CNOT|00⟩ = |00⟩, then X⊗X → |11⟩.
	sup := qx.Vector().Support(1e-9)
	if len(sup) != 1 || sup[0].Basis != 3 {
		t.Errorf("state after forced X⊗X: %v", sup)
	}
}

func TestPureReadoutNoise(t *testing.T) {
	// PMeas-only model must still inject (regression for the P==0 guard).
	m := Model{Name: "readout", PMeas: 1}
	qx := NewQxCore(rand.New(rand.NewSource(36)))
	el := NewErrorLayerModel(qx, m, rand.New(rand.NewSource(37)))
	if err := el.CreateQubits(1); err != nil {
		t.Fatal(err)
	}
	res, err := qpdo.Run(el, circuit.New().Add(gates.Measure, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Last(0) != 1 {
		t.Errorf("forced readout flip missing: %d", res.Last(0))
	}
}

func TestInvalidModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid model should panic at construction")
		}
	}()
	NewErrorLayerModel(NewQxCore(rand.New(rand.NewSource(1))), Model{PX: 2}, rand.New(rand.NewSource(2)))
}
