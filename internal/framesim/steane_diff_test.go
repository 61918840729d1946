package framesim_test

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/framesim"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
	"repro/internal/steane"
)

// runSteaneScripted drives the QPDO oracle stack (Steane layer →
// scripted injector → CHP tableau) through the windows protocol by hand,
// injecting exactly the Script's errors, and records the same per-window
// trace the Steane frame engine emits. The window decode is the layer's
// own RunWindowInfo; diagnostics and probe run bypassed, exactly like the
// frame engine's noiseless rounds.
func runSteaneScripted(t *testing.T, obs framesim.Observable, windows int, script framesim.Script) (traces []framesim.SteaneTrace, errs, gates_ int) {
	t.Helper()
	chpCore := layers.NewChpCore(rand.New(rand.NewSource(98765)))
	inj := framesim.NewInjectLayer(chpCore, script)
	lay := steane.NewLayer(inj)
	if err := lay.CreateQubits(1); err != nil {
		t.Fatal(err)
	}
	init := circuit.New().Add(gates.Prep, 0)
	if obs == framesim.ObserveZ {
		init.Add(gates.H, 0)
	}
	if err := qpdo.WithBypass(lay, func() error {
		_, err := qpdo.Run(lay, init)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if inj.Round != 0 {
		t.Fatalf("injector consumed %d rounds during bypassed init", inj.Round)
	}
	probe := lay.ProbeZL
	if obs == framesim.ObserveZ {
		probe = lay.ProbeXL
	}

	expected := 0
	traces = make([]framesim.SteaneTrace, 0, windows)
	for w := 0; w < windows; w++ {
		info, err := lay.RunWindowInfo(0)
		if err != nil {
			t.Fatal(err)
		}
		gates_ += info.Gates
		tr := framesim.SteaneTrace{
			SX: info.SX, SZ: info.SZ,
			CorrZ: info.CorrZ, CorrX: info.CorrX,
			Probe: -1,
		}
		if err := qpdo.WithBypass(lay, func() error {
			dsx, dsz, err := lay.RunESMRound(0)
			if err != nil {
				return err
			}
			tr.DiagSX, tr.DiagSZ = dsx, dsz
			tr.Clean = dsx == 0 && dsz == 0
			if !tr.Clean {
				return nil
			}
			out, err := probe(0)
			if err != nil {
				return err
			}
			tr.Probe = out
			if out != expected {
				errs++
				expected = out
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	if inj.Round != windows {
		t.Fatalf("injector consumed %d rounds, want %d", inj.Round, windows)
	}
	return traces, errs, gates_
}

// TestSteaneDifferentialScripted is the oracle test of the Steane frame
// engine: for both observables and a range of error densities, a
// scripted error pattern must produce bit-identical per-window traces —
// raw syndromes, decoded corrections, diagnostics, probe outcomes — and
// the same logical error and correction gate counts on the frame engine
// and on the full QPDO stack.
func TestSteaneDifferentialScripted(t *testing.T) {
	const windows = 32
	for _, tc := range []struct {
		name    string
		obs     framesim.Observable
		density float64
		seed    int64
	}{
		{"X/sparse-errors", framesim.ObserveX, 0.004, 1},
		{"X/dense-errors", framesim.ObserveX, 0.04, 2},
		{"Z/sparse-errors", framesim.ObserveZ, 0.004, 3},
		{"Z/dense-errors", framesim.ObserveZ, 0.04, 4},
		{"X/mid-errors", framesim.ObserveX, 0.03, 5},
		{"Z/mid-errors", framesim.ObserveZ, 0.03, 6},
		{"X/empty", framesim.ObserveX, 0, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := framesim.NewSteane(framesim.Config{
				Observable: tc.obs,
				Model:      layers.Depolarizing(1e-3), // ignored: scripted
				RefSeed:    7,
			})
			if err != nil {
				t.Fatal(err)
			}
			script := randomScript(rand.New(rand.NewSource(tc.seed)), eng.ESMSites(), windows, tc.density)
			frameTr, frameRes, err := eng.RunScripted(windows, script)
			if err != nil {
				t.Fatal(err)
			}
			stackTr, stackErrs, stackGates := runSteaneScripted(t, tc.obs, windows, script)
			if len(frameTr) != windows || len(stackTr) != windows {
				t.Fatalf("trace lengths %d/%d, want %d", len(frameTr), len(stackTr), windows)
			}
			for w := range frameTr {
				if frameTr[w] != stackTr[w] {
					t.Errorf("window %d:\n  frame %+v\n  stack %+v\n  (%d scripted errors)",
						w, frameTr[w], stackTr[w], len(script))
				}
			}
			if frameRes.LogicalErrors != stackErrs {
				t.Errorf("logical errors: frame %d, stack %d", frameRes.LogicalErrors, stackErrs)
			}
			if frameRes.CorrectionGates != stackGates {
				t.Errorf("correction gates: frame %d, stack %d", frameRes.CorrectionGates, stackGates)
			}
			if frameRes.Windows != windows {
				t.Errorf("frame ran %d windows, want %d", frameRes.Windows, windows)
			}
			// Guard against a vacuous pass: non-empty scripts must light up
			// syndromes, and the dense ones must trigger corrections.
			if tc.density > 0 {
				syn := 0
				for _, tr := range frameTr {
					syn += tr.SX | tr.SZ
				}
				if syn == 0 {
					t.Error("script injected errors but no syndrome ever fired")
				}
				if tc.density >= 0.03 && frameRes.CorrectionSlots == 0 {
					t.Error("dense script triggered no corrections")
				}
			}
		})
	}
}

// TestWindowSkipIdentical pins the quiet-window skip as exact: sampled
// runs of the Steane and sparse SC17 engines must produce bit-identical
// per-shot results with the skip on and off, at every lane width, with
// and without the Pauli frame, above threshold and far below it, where
// the skip carries the run.
func TestWindowSkipIdentical(t *testing.T) {
	type runner func(seeds []int64, shots int) ([]framesim.ShotResult, error)
	engines := []struct {
		name  string
		build func(cfg framesim.Config) (skip, noSkip runner, err error)
	}{
		{"steane", func(cfg framesim.Config) (runner, runner, error) {
			e, err := framesim.NewSteane(cfg)
			if err != nil {
				return nil, nil, err
			}
			return e.RunBatchWide, e.WithoutSkip().RunBatchWide, nil
		}},
		{"sparse", func(cfg framesim.Config) (runner, runner, error) {
			s, err := framesim.NewSparse(cfg)
			if err != nil {
				return nil, nil, err
			}
			return s.RunBatchWide, s.WithoutSkip().RunBatchWide, nil
		}},
	}
	for _, eng := range engines {
		for _, per := range []float64{2e-3, 1e-4} {
			for _, pf := range []bool{false, true} {
				cfg := framesim.Config{
					Model:            layers.Depolarizing(per),
					MaxLogicalErrors: 4,
					MaxWindows:       3000,
					WithPauliFrame:   pf,
					RefSeed:          11,
				}
				skip, noSkip, err := eng.build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 4} {
					seeds := make([]int64, w)
					for k := range seeds {
						seeds[k] = int64(100*w + k)
					}
					shots := 64 * w
					want, err := noSkip(seeds, shots)
					if err != nil {
						t.Fatal(err)
					}
					got, err := skip(seeds, shots)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s per=%g pf=%v lanes=%d shot %d: skip %+v, no skip %+v",
								eng.name, per, pf, w, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSteaneSparseZeroNoise pins the degenerate skip: with a zero-rate
// model every sampler is parked, so the Steane engine must jump straight
// to MaxWindows — error-free shots in O(1) work per window span.
func TestSteaneSparseZeroNoise(t *testing.T) {
	e, err := framesim.NewSteane(framesim.Config{
		Model:      layers.Model{},
		MaxWindows: 500_000,
		RefSeed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunBatch(9, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.LogicalErrors != 0 || r.Windows != 500_000 || r.InjectedErrors != 0 {
			t.Fatalf("shot %d: %+v, want 500000 clean windows", i, r)
		}
	}
}
