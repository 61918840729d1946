package framesim

import (
	"testing"

	"repro/internal/layers"
)

func benchEngine(b *testing.B, per float64) *Engine {
	b.Helper()
	e, err := New(Config{Model: layers.Depolarizing(per), RefSeed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchSeeds returns w distinct word seeds for the wide benchmarks.
func benchSeeds(w int) []int64 {
	seeds := make([]int64, w)
	for k := range seeds {
		seeds[k] = int64(1 + k)
	}
	return seeds
}

// BenchmarkFrameSimPropagate measures the batch propagate kernel: one
// noisy ESM tape execution for 64 shots. This is the inner loop of every
// LER sweep; it must not allocate.
func BenchmarkFrameSimPropagate(b *testing.B) {
	e := benchEngine(b, 2e-3)
	st := e.newRunState(benchSeeds(1), nil)
	st.active[0] = ^uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runFused(st, e.esmFused, e.refESM, st.r1)
		st.round++
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.runFused(st, e.esmFused, e.refESM, st.r1)
	}); allocs != 0 {
		b.Fatalf("propagate kernel allocates %.0f times per run", allocs)
	}
}

// BenchmarkFrameSimWidePropagate sweeps the lane width of the propagate
// kernel: one noisy ESM tape execution for 64·W shots. ns/op divided by
// W is the per-word cost; the W=8/W=1 ratio is the tape-walk
// amortization the wide layout buys.
func BenchmarkFrameSimWidePropagate(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(benchWidthName(w), func(b *testing.B) {
			e := benchEngine(b, 2e-3)
			st := e.newRunState(benchSeeds(w), nil)
			for k := 0; k < w; k++ {
				st.active[k] = ^uint64(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.runFused(st, e.esmFused, e.refESM, st.r1)
				st.round++
			}
			if allocs := testing.AllocsPerRun(100, func() {
				e.runFused(st, e.esmFused, e.refESM, st.r1)
			}); allocs != 0 {
				b.Fatalf("wide propagate kernel allocates %.0f times per run", allocs)
			}
		})
	}
}

func benchWidthName(w int) string {
	return "lanes=" + string(rune('0'+w))
}

// BenchmarkFrameSimWindow measures one full QEC window for 64 shots:
// two noisy rounds, word-parallel decode, correction, diagnostics, probe.
func BenchmarkFrameSimWindow(b *testing.B) {
	e := benchEngine(b, 2e-3)
	b.ReportAllocs()
	b.ResetTimer()
	e.cfg.MaxWindows = 1
	res := make([]ShotResult, 64)
	st := e.newRunState(benchSeeds(1), nil)
	for i := 0; i < b.N; i++ {
		e.runWindows(st, res, 64, 0, nil)
	}
}

// BenchmarkFrameSimWideWindow sweeps the lane width of one full QEC
// window (64·W shots per call). The window loop must not allocate at
// any width.
func BenchmarkFrameSimWideWindow(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(benchWidthName(w), func(b *testing.B) {
			e := benchEngine(b, 2e-3)
			e.cfg.MaxWindows = 1
			res := make([]ShotResult, 64*w)
			st := e.newRunState(benchSeeds(w), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.runWindows(st, res, 64*w, 0, nil)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				e.runWindows(st, res, 64*w, 0, nil)
			}); allocs != 0 {
				b.Fatalf("wide window loop allocates %.0f times per run", allocs)
			}
		})
	}
}

// benchSteane compiles the Steane frame engine (dense or sparse) for the
// benchmark workload.
func benchSteane(b *testing.B, per float64, sparse bool) *SteaneEngine {
	b.Helper()
	cfg := Config{Model: layers.Depolarizing(per), MaxLogicalErrors: 10, RefSeed: 42}
	var (
		e   *SteaneEngine
		err error
	)
	if sparse {
		e, err = NewSteaneSparse(cfg)
	} else {
		e, err = NewSteane(cfg)
	}
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkSteaneFrameWindow sweeps the lane width of one Steane QEC
// window (one noisy ESM round, word-parallel Hamming decode, correction,
// diagnostics, probe for 64·W shots). The window loop must not allocate
// at any width.
func BenchmarkSteaneFrameWindow(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(benchWidthName(w), func(b *testing.B) {
			e := benchSteane(b, 2e-3, false)
			e.cfg.MaxWindows = 1
			res := make([]ShotResult, 64*w)
			st := e.newRunState(benchSeeds(w), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.runWindows(st, res, 64*w, 0, nil)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				e.runWindows(st, res, 64*w, 0, nil)
			}); allocs != 0 {
				b.Fatalf("steane window loop allocates %.0f times per run", allocs)
			}
		})
	}
}

// BenchmarkSteaneFrameBatch runs the Steane LER-point workload (PER
// 5e-3, 10 logical errors per shot) through one W-wide dense batch;
// shots/s across the width sweep is recorded in BENCH_framesim.json.
func BenchmarkSteaneFrameBatch(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(benchWidthName(w), func(b *testing.B) {
			e := benchSteane(b, 5e-3, false)
			seeds := benchSeeds(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunBatchWide(seeds, 64*w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*64*w)/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// BenchmarkSteaneFrameSparseBatch is BenchmarkSteaneFrameBatch on the
// window-skipping engine at a below-threshold rate, where whole-batch
// gap skipping dominates.
func BenchmarkSteaneFrameSparseBatch(b *testing.B) {
	for _, sparse := range []bool{false, true} {
		name := "dense"
		if sparse {
			name = "sparse"
		}
		b.Run(name, func(b *testing.B) {
			e := benchSteane(b, 3e-4, sparse)
			seeds := benchSeeds(4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunBatchWide(seeds, 256); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*256)/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// BenchmarkFrameSimWideBatch runs the full LER-point workload (the
// BenchmarkFrameSimLERPoint sample protocol: PER 5e-3, 10 logical errors
// per shot) through one W-wide batch of 64·W shots. Shots per second
// across the width sweep is the 64→512 scaling curve recorded in
// BENCH_framesim.json.
func BenchmarkFrameSimWideBatch(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(benchWidthName(w), func(b *testing.B) {
			e, err := New(Config{
				Model:            layers.Depolarizing(5e-3),
				MaxLogicalErrors: 10,
				RefSeed:          42,
			})
			if err != nil {
				b.Fatal(err)
			}
			seeds := benchSeeds(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunBatchWide(seeds, 64*w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*64*w)/b.Elapsed().Seconds(), "shots/s")
		})
	}
}
