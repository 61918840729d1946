package testbench

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
)

func qxFactory(base int64) StackFactory {
	return func(it int) (qpdo.Core, error) {
		return layers.NewQxCore(rand.New(rand.NewSource(base + int64(it)))), nil
	}
}

func chpFactory(base int64) StackFactory {
	return func(it int) (qpdo.Core, error) {
		return layers.NewChpCore(rand.New(rand.NewSource(base + int64(it)))), nil
	}
}

func pfFactory(base int64) StackFactory {
	return func(it int) (qpdo.Core, error) {
		return layers.NewPauliFrameLayer(layers.NewQxCore(rand.New(rand.NewSource(base + int64(it))))), nil
	}
}

func TestBellStateHistoOnAllStacks(t *testing.T) {
	for name, factory := range map[string]StackFactory{
		"qx": qxFactory(1), "chp": chpFactory(2), "pauli-frame": pfFactory(3),
	} {
		b := NewBellStateHisto()
		if err := Run(b, factory, 60); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !b.Passed() {
			t.Errorf("%s: Bell bench failed:\n%s", name, b.Report())
		}
		total := 0
		for _, n := range b.Counts {
			total += n
		}
		if total != 60 {
			t.Errorf("%s: %d outcomes recorded", name, total)
		}
		if !strings.Contains(b.Report(), "|00>") {
			t.Errorf("%s: report rendering:\n%s", name, b.Report())
		}
	}
}

func TestGateSupportOnUniversalStack(t *testing.T) {
	g := NewGateSupport()
	if err := Run(g, qxFactory(10), 1); err != nil {
		t.Fatal(err)
	}
	if !g.Passed() {
		t.Fatalf("universal back-end failed gates:\n%s", g.Report())
	}
	// Every gate in the vocabulary must be supported on QxCore.
	if got := len(g.Supported()); got != 13 {
		t.Errorf("supported %d gates, want 13:\n%s", got, g.Report())
	}
}

func TestGateSupportOnStabilizerStack(t *testing.T) {
	// Through a Pauli frame, CHP's rejection of T must leave the frame
	// clean for the two-qubit gates the script checks after it.
	pfChp := func(it int) (qpdo.Core, error) {
		return layers.NewPauliFrameLayer(layers.NewChpCore(rand.New(rand.NewSource(11 + int64(it))))), nil
	}
	for name, factory := range map[string]StackFactory{"chp": chpFactory(11), "pauli-frame": pfChp} {
		g := NewGateSupport()
		if err := Run(g, factory, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// CHP must run every Clifford correctly and reject T/T†/Toffoli
		// rather than compute them wrongly.
		if !g.Passed() {
			t.Fatalf("%s: stabilizer back-end computed a wrong result:\n%s", name, g.Report())
		}
		for _, n := range []gates.Name{gates.GateT, gates.GateTdg, gates.GateTOF} {
			if g.Results[n] != GateUnsupported {
				t.Errorf("%s: gate %s should be unsupported on CHP, got %v", name, n, g.Results[n])
			}
		}
		for _, n := range []gates.Name{gates.GateH, gates.GateCNOT, gates.GateSWAP, gates.GateCZ} {
			if g.Results[n] != GateOK {
				t.Errorf("%s: gate %s should pass on CHP, got %v", name, n, g.Results[n])
			}
		}
		if !strings.Contains(g.Report(), "unsupported") {
			t.Errorf("%s: report should mention unsupported gates:\n%s", name, g.Report())
		}
	}
}

func TestGateSupportThroughPauliFrame(t *testing.T) {
	g := NewGateSupport()
	if err := Run(g, pfFactory(12), 1); err != nil {
		t.Fatal(err)
	}
	if !g.Passed() || len(g.Supported()) != 13 {
		t.Fatalf("Pauli frame stack failed the gate script:\n%s", g.Report())
	}
}

func TestRunPropagatesFactoryError(t *testing.T) {
	bad := func(int) (qpdo.Core, error) { return nil, errors.New("boom") }
	if err := Run(NewBellStateHisto(), bad, 1); err == nil {
		t.Error("factory error swallowed")
	}
}
