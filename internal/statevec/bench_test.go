package statevec

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/gates"
)

// benchState builds an n-qubit state warmed into a dense superposition
// so every kernel touches genuinely nonzero amplitudes.
func benchState(n, workers int) *State {
	s := New(n, rand.New(rand.NewSource(1)))
	s.SetWorkers(workers)
	for q := 0; q < n; q++ {
		s.ApplyGate(gates.H, q)
	}
	s.ApplyGate(gates.T, 0)
	return s
}

// BenchmarkStatevecSingleQubit measures the strided butterfly kernel
// (H, the only dense registered single-qubit gate) on 2^20 amplitudes.
// Must stay 0 allocs/op (see TestKernelPathsAllocFree).
func BenchmarkStatevecSingleQubit(b *testing.B) {
	s := benchState(20, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyGate(gates.H, 10)
	}
}

// BenchmarkStatevecDiagonal measures the phase-only kernel (T): each
// touched amplitude is read and written once, no gather.
func BenchmarkStatevecDiagonal(b *testing.B) {
	s := benchState(20, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyGate(gates.T, 10)
	}
}

// BenchmarkStatevecPermutation measures the conditional pair-swap
// kernel (CNOT).
func BenchmarkStatevecPermutation(b *testing.B) {
	s := benchState(20, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyGate(gates.CNOT, 3, 15)
	}
}

// BenchmarkStatevecMeasure measures the fused measure path: the blocked
// ProbOne reduction plus the single projection/renormalization pass.
// The H re-opens the superposition so every iteration measures a
// genuinely random qubit state.
func BenchmarkStatevecMeasure(b *testing.B) {
	s := benchState(20, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyGate(gates.H, 10)
		s.Measure(10)
	}
}

// benchCircuit draws the seeded 20-qubit random Clifford+T circuit of
// the kernel-vs-generic comparison: the acceptance workload.
func benchCircuit(n, ngates int, seed int64) []struct {
	g  *gates.Gate
	qs []int
} {
	pool := append(gates.Unitaries(), gates.RZ(0.377))
	sort.Slice(pool, func(i, j int) bool { return pool[i].Name < pool[j].Name })
	rng := rand.New(rand.NewSource(seed))
	ops := make([]struct {
		g  *gates.Gate
		qs []int
	}, ngates)
	for i := range ops {
		for {
			g := pool[rng.Intn(len(pool))]
			if g.Arity > n {
				continue
			}
			ops[i].g = g
			ops[i].qs = rng.Perm(n)[:g.Arity]
			break
		}
	}
	return ops
}

// BenchmarkStatevecRandomCircuit runs one seeded 50-gate slice of a
// 20-qubit random Clifford+T circuit per op, comparing the generic
// ApplyMatrix oracle, the serial kernels, and the sharded kernels.
// The kernels/generic ns/op ratio is the headline speedup recorded in
// DESIGN.md, "State-vector and dispatch microbenchmarks" (acceptance:
// ≥ 5×).
func BenchmarkStatevecRandomCircuit(b *testing.B) {
	const n, ngates, seed = 20, 50, 2017
	ops := benchCircuit(n, ngates, seed)
	b.Run("generic", func(b *testing.B) {
		s := benchState(n, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, op := range ops {
				s.ApplyMatrix(op.g.Matrix, op.qs...)
			}
		}
	})
	b.Run("kernels", func(b *testing.B) {
		s := benchState(n, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, op := range ops {
				s.ApplyGate(op.g, op.qs...)
			}
		}
	})
	b.Run("kernels-parallel", func(b *testing.B) {
		s := benchState(n, runtime.GOMAXPROCS(0))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, op := range ops {
				s.ApplyGate(op.g, op.qs...)
			}
		}
	})
}
