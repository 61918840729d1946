package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"
)

// TestGoldenSteaneSweep pins Steane sweeps on the shared pipeline to the
// bits of the dedicated Steane sweep driver they replaced: the SHA-256 of
// json.Marshal of the folded []PointResult, recorded from that driver,
// must be reproduced on every engine at any worker count. Regenerate
// only with a deliberate semantic change, and say so in the change log.
func TestGoldenSteaneSweep(t *testing.T) {
	frame := SweepConfig{
		Code:             CodeSteane,
		Engine:           EngineFrameSim,
		PERs:             []float64{6e-4, 3e-3},
		Samples:          200,
		MaxLogicalErrors: 3,
		MaxWindows:       1500,
		BaseSeed:         808,
		Lanes:            2,
	}
	sparse := frame
	sparse.Engine = EngineSparse
	sparse.ErrorType = LogicalZ
	sparse.Lanes = 1
	cases := []struct {
		name   string
		cfg    SweepConfig
		digest string
	}{
		{"stack", SweepConfig{
			Code:             CodeSteane,
			PERs:             []float64{3e-3, 8e-3},
			Samples:          2,
			WithPauliFrame:   true,
			MaxLogicalErrors: 4,
			MaxWindows:       3000,
			BaseSeed:         424242,
		}, "2816200d39dd498534ff8a75b6f69d28497ec0489a68f0807f844b48ac3e5412"},
		{"framesim", frame, "d54dac740e5911924f49e82ea5a5eedd495277e946ac2a9d30a1f08f34c56669"},
		{"sparse", sparse, "d1fc888652f935abc0213113757550d36eb65e9d7a25bcca05214b03c9be6499"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			cfg := tc.cfg
			cfg.Workers = workers
			pts, err := RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(pts)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("%s workers=%d: folded digest %s, want %s", tc.name, workers, got, tc.digest)
			}
		}
	}
}

// TestSteaneSweepLaneWorkerInvariance pins the Steane sweep's
// determinism contract: dense and sparse frame sweeps fold to
// bit-identical PointResults at every lane width and worker count.
func TestSteaneSweepLaneWorkerInvariance(t *testing.T) {
	for _, engine := range []Engine{EngineFrameSim, EngineSparse} {
		base := SweepConfig{
			Code:             CodeSteane,
			Engine:           engine,
			PERs:             []float64{6e-4, 3e-3},
			Samples:          200,
			MaxLogicalErrors: 3,
			MaxWindows:       1500,
			BaseSeed:         808,
			Workers:          1,
		}
		want, err := RunSweep(base)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 2 || len(want[0].LERs) != 200 {
			t.Fatalf("%v: folded %d points / %d samples", engine, len(want), len(want[0].LERs))
		}
		for _, lanes := range []int{2, 8} {
			cfg := base
			cfg.Lanes = lanes
			cfg.Workers = 3
			got, err := RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: lanes=%d workers=3 sweep diverged from width-1 serial run", engine, lanes)
			}
		}
	}
}

// TestSteaneSweepRejectsBadLanes: the width vocabulary and the
// stack-engine restriction are enforced at the sweep entry point.
func TestSteaneSweepRejectsBadLanes(t *testing.T) {
	cfg := SweepConfig{Code: CodeSteane, PERs: []float64{1e-3}, Samples: 1, Lanes: 3, Engine: EngineFrameSim}
	if _, err := RunSweep(cfg); err == nil {
		t.Error("lanes=3 accepted")
	}
	cfg.Lanes = 2
	cfg.Engine = EngineStack
	if _, err := RunSweep(cfg); err == nil {
		t.Error("stack engine accepted a lane width")
	}
}

// TestSteaneStackFrameAgreement runs the same Steane LER point on the
// oracle stack and the frame engine. The engines' RNG streams differ, so
// only statistical agreement is required: with the scripted differential
// test pinning exact window semantics, this guards the sampled-noise
// wiring (model, seeds, termination) at the experiments level. The
// pooled LERs must land within a factor of two of each other — loose,
// but far tighter than the order of magnitude a protocol bug (wrong
// model, wrong observable, double-counted rounds) produces.
func TestSteaneStackFrameAgreement(t *testing.T) {
	const per = 8e-3
	stackCfg := SweepConfig{
		Code:             CodeSteane,
		Engine:           EngineStack,
		PERs:             []float64{per},
		Samples:          3,
		MaxLogicalErrors: 12,
		MaxWindows:       4000,
		BaseSeed:         2024,
	}
	stack, err := RunSweep(stackCfg)
	if err != nil {
		t.Fatal(err)
	}
	frameCfg := stackCfg
	frameCfg.Engine = EngineFrameSim
	frameCfg.Samples = 64
	frameCfg.MaxLogicalErrors = 4
	frame, err := RunSweep(frameCfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, pf := stack[0].PooledLER(), frame[0].PooledLER()
	if ps <= 0 || pf <= 0 {
		t.Fatalf("degenerate pooled LERs: stack %v, frame %v", ps, pf)
	}
	if ratio := ps / pf; ratio < 0.5 || ratio > 2 {
		t.Errorf("stack LER %.3e vs frame LER %.3e (ratio %.2f) disagree", ps, pf, ratio)
	}
}

// TestSteanePauliFrameSavings: with the Pauli frame in the stack, the
// correction gates must be absorbed — fewer ops leave the frame than
// enter it — and the run must report a nonzero savings fraction, like
// the SC17 stack does.
func TestSteanePauliFrameSavings(t *testing.T) {
	r, err := RunLER(LERConfig{
		Code:             CodeSteane,
		PER:              8e-3,
		WithPauliFrame:   true,
		MaxLogicalErrors: 6,
		MaxWindows:       3000,
		Seed:             99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Windows == 0 || r.CorrectionGates == 0 {
		t.Fatalf("degenerate run: %+v", r)
	}
	if r.OpsExecuted >= r.OpsIssued {
		t.Errorf("frame absorbed nothing: issued %d, executed %d", r.OpsIssued, r.OpsExecuted)
	}
	if r.GatesSavedFrac() <= 0 {
		t.Errorf("gates saved fraction %v, want > 0", r.GatesSavedFrac())
	}
}
