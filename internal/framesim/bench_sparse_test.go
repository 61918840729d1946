package framesim_test

import (
	"fmt"
	"testing"

	"repro/internal/framesim"
	"repro/internal/layers"
)

// benchEngineBatch runs 64-shot RunBatch words on one engine at a fixed
// PER with a bounded window budget — the same seeds and the same
// statistical target (MaxWindows windows per shot) for both engines, so
// the ns/op ratio is the dense-vs-sparse wall-clock speedup recorded in
// DESIGN.md ("Engines"). The window budget, not MaxLogicalErrors,
// terminates every shot: at PER 1e-5 a logical-error target would never
// be reached.
func benchEngineBatch(b *testing.B, sparse bool, per float64) {
	cfg := framesim.Config{
		Observable:       framesim.ObserveX,
		Model:            layers.Depolarizing(per),
		MaxWindows:       2000,
		MaxLogicalErrors: 1 << 30,
		RefSeed:          42,
	}
	var run func(seed int64, shots int) ([]framesim.ShotResult, error)
	if sparse {
		s, err := framesim.NewSparse(cfg)
		if err != nil {
			b.Fatal(err)
		}
		run = s.RunBatch
	} else {
		e, err := framesim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		run = e.RunBatch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(int64(i), 64); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPERs spans the dense-vs-sparse crossover: the paper's
// low-error-rate regime, SC17's pseudo-threshold and above it.
var benchPERs = []float64{1e-3, 3e-4, 1e-4, 1e-5}

// BenchmarkSparseBatch / BenchmarkFrameSimDenseBatch are the
// dense-vs-sparse speedup pair.
func BenchmarkSparseBatch(b *testing.B) {
	for _, per := range benchPERs {
		b.Run(fmt.Sprintf("per=%.0e", per), func(b *testing.B) { benchEngineBatch(b, true, per) })
	}
}

func BenchmarkFrameSimDenseBatch(b *testing.B) {
	for _, per := range benchPERs {
		b.Run(fmt.Sprintf("per=%.0e", per), func(b *testing.B) { benchEngineBatch(b, false, per) })
	}
}
