package experiments

import (
	"reflect"
	"testing"
)

// adaptiveTestConfig is a sparse-engine sweep with a high-LER point that
// converges quickly and a generous precision target, so the adaptive
// path exercises a genuine early stop in a few batches.
func adaptiveTestConfig(workers int) SweepConfig {
	return SweepConfig{
		Engine:           EngineSparse,
		PERs:             []float64{8e-3},
		Samples:          1024,
		ErrorType:        LogicalX,
		MaxLogicalErrors: 1 << 30,
		MaxWindows:       150,
		BaseSeed:         5150,
		AdaptRelWidth:    0.25,
		AdaptMinSamples:  64,
		AdaptBatch:       256,
		Workers:          workers,
	}
}

// TestAdaptiveStopsEarly: at a fat error rate the Wilson interval
// tightens long before the full sample budget, and the stop must land
// exactly on a batch boundary (the determinism granularity).
func TestAdaptiveStopsEarly(t *testing.T) {
	cfg := adaptiveTestConfig(1)
	pts, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points", len(pts))
	}
	n := len(pts[0].LERs)
	if n >= cfg.Samples {
		t.Fatalf("adaptive sweep ran all %d samples (no early stop)", n)
	}
	if n < cfg.AdaptMinSamples {
		t.Fatalf("stopped after %d samples, below minimum %d", n, cfg.AdaptMinSamples)
	}
	if n%cfg.AdaptBatch != 0 {
		t.Fatalf("stopped at %d samples, not a multiple of the %d-sample batch", n, cfg.AdaptBatch)
	}
	if pts[0].TotalErrors <= 0 || pts[0].TotalWindows <= 0 {
		t.Fatalf("degenerate pooled counts: %+v", pts[0])
	}
	lo, hi := pts[0].WilsonLER()
	phat := pts[0].PooledLER()
	if hw := (hi - lo) / 2; hw > cfg.AdaptRelWidth*phat {
		t.Errorf("stop fired at half-width %g > target %g", hw, cfg.AdaptRelWidth*phat)
	}
}

// TestAdaptiveWorkerInvariance is the acceptance-criteria determinism
// proof: batch-granular stopping makes the adaptive sweep bit-identical
// for any worker count, on the sparse frame engine, on the stack, and on
// the Steane code.
func TestAdaptiveWorkerInvariance(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		base, err := RunSweep(adaptiveTestConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{3, 8} {
			got, err := RunSweep(adaptiveTestConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("Workers=1 and Workers=%d diverged:\n1: %+v\n%d: %+v",
					workers, base, workers, got)
			}
		}
	})
	t.Run("stack", func(t *testing.T) {
		cfg := SweepConfig{
			Engine:           EngineStack,
			PERs:             []float64{8e-3},
			Samples:          96,
			MaxLogicalErrors: 3,
			MaxWindows:       2000,
			BaseSeed:         77,
			AdaptRelWidth:    0.4,
			AdaptMinSamples:  8,
			AdaptBatch:       16,
		}
		cfg.Workers = 1
		base, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 7
		got, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("stack adaptive sweep diverged across workers:\n1: %+v\n7: %+v", base, got)
		}
		if len(base[0].LERs)%cfg.AdaptBatch != 0 && len(base[0].LERs) != cfg.Samples {
			t.Fatalf("stack stop not batch-granular: %d samples", len(base[0].LERs))
		}
	})
	t.Run("steane", func(t *testing.T) {
		steaneConfig := func(workers int) SweepConfig {
			cfg := adaptiveTestConfig(workers)
			cfg.Code = CodeSteane
			return cfg
		}
		cfg := steaneConfig(1)
		base, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(base[0].LERs); n >= cfg.Samples || n%cfg.AdaptBatch != 0 {
			t.Fatalf("Steane adaptive sweep ran %d samples, want an early stop on a batch boundary", n)
		}
		for _, workers := range []int{3, 8} {
			got, err := RunSweep(steaneConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("Steane Workers=1 and Workers=%d diverged:\n1: %+v\n%d: %+v",
					workers, base, workers, got)
			}
		}
	})
}

// TestAdaptivePrefixOfFullSweep: the shards an adaptive sweep computes
// are exactly a prefix of the full sweep's shard sequence — same seeds,
// same results — so the adaptive LERs must equal the full sweep's first
// n samples verbatim. This pins that adaptivity changes only *how many*
// shards run, never *what* any shard computes.
func TestAdaptivePrefixOfFullSweep(t *testing.T) {
	cfg := adaptiveTestConfig(4)
	adaptive, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AdaptRelWidth = 0 // same spec, adaptivity off
	full, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(adaptive[0].LERs)
	if len(full[0].LERs) != cfg.Samples {
		t.Fatalf("full sweep ran %d samples, want %d", len(full[0].LERs), cfg.Samples)
	}
	if !reflect.DeepEqual(adaptive[0].LERs, full[0].LERs[:n]) {
		t.Fatal("adaptive samples are not a verbatim prefix of the full sweep")
	}
	if !reflect.DeepEqual(adaptive[0].WindowCounts, full[0].WindowCounts[:n]) {
		t.Fatal("adaptive window counts are not a verbatim prefix of the full sweep")
	}
}

// TestAdaptiveZeroErrorPointRunsFull: a point that never observes a
// logical error has no interval to converge and must exhaust its full
// sample budget rather than stop on a degenerate all-zero pool.
func TestAdaptiveZeroErrorPointRunsFull(t *testing.T) {
	cfg := SweepConfig{
		Engine:          EngineSparse,
		PERs:            []float64{1e-7},
		Samples:         128,
		MaxWindows:      20,
		BaseSeed:        9,
		AdaptRelWidth:   0.5,
		AdaptMinSamples: 64,
		AdaptBatch:      64,
	}
	pts, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts[0].LERs) != cfg.Samples {
		t.Fatalf("zero-error point stopped early at %d samples", len(pts[0].LERs))
	}
	if pts[0].TotalErrors != 0 {
		t.Fatalf("expected an error-free point, got %d errors", pts[0].TotalErrors)
	}
}

// TestAdaptiveProgressOrdered: the adaptive path honors the Progress
// contract — one call per point, ascending order.
func TestAdaptiveProgressOrdered(t *testing.T) {
	cfg := adaptiveTestConfig(4)
	cfg.PERs = []float64{6e-3, 8e-3}
	var order []int
	cfg.Progress = func(point int, per float64) { order = append(order, point) }
	if _, err := RunSweep(cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1}) {
		t.Fatalf("adaptive progress order: %v", order)
	}
}

// TestSparseSweepDeterministicAcrossWorkers mirrors the headline
// determinism guarantee for the sparse engine on the non-adaptive path.
func TestSparseSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := adaptiveTestConfig(1)
	cfg.AdaptRelWidth = 0
	cfg.Samples = 256
	serial, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("sparse sweep diverged between Workers=1 and Workers=8")
	}
	if serial[0].MeanLER() <= 0 {
		t.Fatalf("degenerate sparse sweep: %+v", serial[0])
	}
}
