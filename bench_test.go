package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chp"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/experiments"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
	"repro/internal/randcirc"
	"repro/internal/statevec"
	"repro/internal/stats"
	"repro/internal/surface"
	"repro/internal/surfaced"
	"repro/internal/timing"
)

// The benchmarks below regenerate, at benchmark scale, every table and
// figure of the thesis evaluation (Chapter 5). Each bench logs one
// summary line of the series it reproduces (visible with -v); the cmd/
// tools regenerate the full-resolution versions.

var logOnce sync.Map

func logSeries(b *testing.B, key, format string, args ...interface{}) {
	if _, loaded := logOnce.LoadOrStore(key, true); !loaded {
		b.Logf(format, args...)
	}
}

// BenchmarkTable58ESMCircuit regenerates the ESM circuit of Table 5.8
// (8 time slots, 48 operations) and measures its generation cost.
func BenchmarkTable58ESMCircuit(b *testing.B) {
	st := &surface.Star{Mode: surface.AncillaDedicated}
	for i := 0; i < surface.NumData; i++ {
		st.Data[i] = i
	}
	for i := 0; i < surface.NumAncilla; i++ {
		st.Anc[i] = surface.NumData + i
	}
	var c *circuit.Circuit
	for i := 0; i < b.N; i++ {
		c = st.ESMCircuit()
	}
	logSeries(b, "t58", "Table 5.8: ESM circuit has %d slots / %d ops (thesis: 8 / 48)",
		c.NumSlots(), c.NumOps())
}

// BenchmarkListing51InitZeroL regenerates the |0⟩_L initialization of
// Listing 5.1 on the state-vector back-end.
func BenchmarkListing51InitZeroL(b *testing.B) {
	var support int
	for i := 0; i < b.N; i++ {
		qx := layers.NewQxCore(rand.New(rand.NewSource(int64(i))))
		l := surface.NewNinjaStarLayer(qx, surface.Config{Ancilla: surface.AncillaDedicated})
		if err := l.CreateQubits(1); err != nil {
			b.Fatal(err)
		}
		if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0)); err != nil {
			b.Fatal(err)
		}
		keep := make([]int, surface.NumData)
		for j := range keep {
			keep[j] = l.Star(0).Data[j]
		}
		sub, err := qx.Vector().ExtractSubsystem(keep)
		if err != nil {
			b.Fatal(err)
		}
		support = len(sub.Support(1e-9))
	}
	logSeries(b, "l51", "Listing 5.1: |0⟩_L support has %d basis states of amplitude 0.25 (thesis: 16)", support)
}

// BenchmarkTable55CNOTL regenerates one row of the CNOT_L truth table.
func BenchmarkTable55CNOTL(b *testing.B) {
	var mc, mt int
	for i := 0; i < b.N; i++ {
		qx := layers.NewQxCore(rand.New(rand.NewSource(int64(i))))
		l := surface.NewNinjaStarLayer(qx, surface.Config{Ancilla: surface.AncillaSharedSingle})
		if err := l.CreateQubits(2); err != nil {
			b.Fatal(err)
		}
		c := circuit.New().Add(gates.Prep, 0).Add(gates.Prep, 1).
			Add(gates.X, 0).Add(gates.CNOT, 0, 1).
			Add(gates.Measure, 0).Add(gates.Measure, 1)
		res, err := qpdo.Run(l, c)
		if err != nil {
			b.Fatal(err)
		}
		mc, mt = res.Last(0), res.Last(1)
	}
	logSeries(b, "t55", "Table 5.5: CNOT_L|10⟩_L → |%d%d⟩_L (thesis: |11⟩_L)", mc, mt)
}

// BenchmarkTable56CZL regenerates the −|11⟩_L phase row of Table 5.6.
func BenchmarkTable56CZL(b *testing.B) {
	var phase complex128
	for i := 0; i < b.N; i++ {
		qx := layers.NewQxCore(rand.New(rand.NewSource(int64(i))))
		l := surface.NewNinjaStarLayer(qx, surface.Config{Ancilla: surface.AncillaSharedSingle})
		if err := l.CreateQubits(2); err != nil {
			b.Fatal(err)
		}
		prep := circuit.New().Add(gates.Prep, 0).Add(gates.Prep, 1).
			Add(gates.X, 0).Add(gates.X, 1)
		if _, err := qpdo.Run(l, prep); err != nil {
			b.Fatal(err)
		}
		before := qx.Vector().Clone()
		if _, err := qpdo.Run(l, circuit.New().Add(gates.CZ, 0, 1)); err != nil {
			b.Fatal(err)
		}
		ref, after := before.Amplitudes(), qx.Vector().Amplitudes()
		for j := range ref {
			if real(ref[j])*real(ref[j])+imag(ref[j])*imag(ref[j]) > 1e-18 {
				phase = after[j] / ref[j]
				break
			}
		}
	}
	logSeries(b, "t56", "Table 5.6: CZ_L|11⟩_L phase = %.3f (thesis: −1)", real(phase))
}

// BenchmarkFig57OddBell regenerates one odd-Bell-state shot with a Pauli
// frame on the stabilizer back-end (Fig 5.7 histogram unit).
func BenchmarkFig57OddBell(b *testing.B) {
	anti := 0
	for i := 0; i < b.N; i++ {
		ch := layers.NewChpCore(rand.New(rand.NewSource(int64(i))))
		pf := layers.NewPauliFrameLayer(ch)
		l := surface.NewNinjaStarLayer(pf, surface.Config{Ancilla: surface.AncillaDedicated})
		if err := l.CreateQubits(2); err != nil {
			b.Fatal(err)
		}
		c := circuit.New().Add(gates.Prep, 0).Add(gates.Prep, 1).
			Add(gates.H, 0).Add(gates.CNOT, 0, 1).Add(gates.X, 0).
			Add(gates.Measure, 0).Add(gates.Measure, 1)
		res, err := qpdo.Run(l, c)
		if err != nil {
			b.Fatal(err)
		}
		if res.Last(0) != res.Last(1) {
			anti++
		}
	}
	logSeries(b, "f57", "Fig 5.7: %d/%d odd-Bell shots anti-correlated (thesis: all)", anti, b.N)
}

// benchLER runs one small LER computation.
func benchLER(b *testing.B, withPF bool, key, figure string) {
	var last experiments.LERResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunLER(experiments.LERConfig{
			PER:              3e-3,
			WithPauliFrame:   withPF,
			MaxLogicalErrors: 3,
			MaxWindows:       20000,
			Seed:             int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	logSeries(b, key, "%s: PER=3e-3 → LER=%.2e over %d windows (PF=%v)",
		figure, last.LER, last.Windows, withPF)
}

// BenchmarkFig511LERWithoutPF regenerates one point of the Fig 5.11/5.12
// curves (PER vs LER without Pauli frame).
func BenchmarkFig511LERWithoutPF(b *testing.B) {
	benchLER(b, false, "f511", "Fig 5.11")
}

// BenchmarkFig513LERWithPF regenerates one point of the Fig 5.13/5.14
// curves (PER vs LER with Pauli frame).
func BenchmarkFig513LERWithPF(b *testing.B) {
	benchLER(b, true, "f513", "Fig 5.13")
}

// BenchmarkFig515Overlay regenerates a two-point overlay of the paired
// curves of Figs 5.15/5.16 and derives the Fig 5.17 difference, the
// Fig 5.19 coefficient of variation and the Fig 5.21/5.22 t-tests.
func BenchmarkFig515Overlay(b *testing.B) {
	var pair experiments.PairedSweeps
	for i := 0; i < b.N; i++ {
		var err error
		pair, err = experiments.RunPairedSweeps(experiments.SweepConfig{
			PERs:             []float64{3e-3},
			Samples:          2,
			MaxLogicalErrors: 3,
			MaxWindows:       20000,
			BaseSeed:         int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	d := pair.DiffSeries()[0]
	cv := pair.CVSeries()[0]
	ts, err := pair.TTestSeries()
	if err != nil {
		b.Fatal(err)
	}
	logSeries(b, "f515",
		"Figs 5.15-5.22: δPL=%.1e (σmax=%.1e), CV=%.2f/%.2f, ρ_ind=%.2f ρ_pair=%.2f",
		d.Delta, d.SigmaMax, cv.CVWithout, cv.CVWith, ts[0].IndependentP, ts[0].PairedPVal)
}

// BenchmarkFig525Savings regenerates the gates/slots-saved series unit of
// Figs 5.25/5.26.
func BenchmarkFig525Savings(b *testing.B) {
	var r experiments.LERResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunLER(experiments.LERConfig{
			PER:              5e-3,
			WithPauliFrame:   true,
			MaxLogicalErrors: 3,
			MaxWindows:       20000,
			Seed:             int64(i + 7),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	logSeries(b, "f525", "Figs 5.25/5.26: gates saved %.3f%%, slots saved %.3f%% (ceiling 5.9%%)",
		100*r.GatesSavedFrac(), 100*r.SlotsSavedFrac())
}

// BenchmarkFig527UpperBound regenerates the Eq. 5.12 curve of Fig 5.27.
func BenchmarkFig527UpperBound(b *testing.B) {
	var at3, at11 float64
	for i := 0; i < b.N; i++ {
		at3 = experiments.UpperBoundRelativeImprovement(3, 8)
		at11 = experiments.UpperBoundRelativeImprovement(11, 8)
	}
	logSeries(b, "f527", "Fig 5.27: bound d=3 → %.2f%%, d=11 → %.2f%% (thesis: 5.9%% → <1.3%%)",
		100*at3, 100*at11)
}

// BenchmarkFig33Schedules regenerates the schedule comparison of thesis
// Fig 3.3: the per-window latency with and without a Pauli frame and the
// relaxed decoder deadline.
func BenchmarkFig33Schedules(b *testing.B) {
	var without, with, deadline int
	for i := 0; i < b.N; i++ {
		p := timing.SC17(8)
		without = timing.WindowLatencyWithoutFrame(p)
		with = timing.WindowLatencyWithFrame(p)
		deadline = timing.DecoderDeadlineWithFrame(p)
	}
	logSeries(b, "f33",
		"Fig 3.3: window %d slots serial vs %d pipelined; decoder deadline 0 → %d slots",
		without, with, deadline)
}

// BenchmarkFutureWorkDistance runs the d=5 generic-surface-code window —
// the thesis' future-work experiment (Chapter 6) — and reports the
// Eq. 5.12 ceiling it confirms.
func BenchmarkFutureWorkDistance(b *testing.B) {
	ch := layers.NewChpCore(rand.New(rand.NewSource(1)))
	plane, err := surfaced.NewPlane(ch, 5)
	if err != nil {
		b.Fatal(err)
	}
	if err := plane.InitZero(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plane.RunWindow(); err != nil {
			b.Fatal(err)
		}
	}
	logSeries(b, "fw-d5", "future work: d=5 window (4 rounds, 49 data qubits); PF ceiling %.2f%%",
		100*experiments.UpperBoundRelativeImprovement(5, 8))
}

// BenchmarkParallelSweep compares the Monte-Carlo sweep at Workers=1
// against Workers=NumCPU on the same (point × sample) grid — the
// wall-clock ratio is the parallel engine's speedup (ideally ≈ core
// count; the outputs are bit-identical either way).
func BenchmarkParallelSweep(b *testing.B) {
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := experiments.RunSweep(experiments.SweepConfig{
					PERs:             []float64{3e-3, 5e-3, 8e-3},
					Samples:          4,
					MaxLogicalErrors: 3,
					MaxWindows:       20000,
					BaseSeed:         2017,
					Workers:          workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(pts) != 3 {
					b.Fatalf("sweep points: %d", len(pts))
				}
			}
		}
	}
	b.Run("workers=1", bench(1))
	b.Run(fmt.Sprintf("workers=%d", runtime.NumCPU()), bench(runtime.NumCPU()))
}

// --- substrate and ablation benchmarks -------------------------------

// BenchmarkCHPESMRound measures one full ESM round on the bit-packed
// stabilizer tableau.
func BenchmarkCHPESMRound(b *testing.B) {
	ch := layers.NewChpCore(rand.New(rand.NewSource(1)))
	l := surface.NewNinjaStarLayer(ch, surface.Config{Ancilla: surface.AncillaDedicated})
	if err := l.CreateQubits(1); err != nil {
		b.Fatal(err)
	}
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunESMRound(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCHPWindow measures a full QEC window (2 rounds + decode).
func BenchmarkCHPWindow(b *testing.B) {
	ch := layers.NewChpCore(rand.New(rand.NewSource(1)))
	l := surface.NewNinjaStarLayer(ch, surface.Config{Ancilla: surface.AncillaDedicated})
	if err := l.CreateQubits(1); err != nil {
		b.Fatal(err)
	}
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunWindow(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCHPGates measures raw tableau gate throughput at 17 qubits.
func BenchmarkCHPGates(b *testing.B) {
	t := chp.New(17, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.H(i % 17)
		t.CNOT(i%17, (i+1)%17)
		t.S((i + 2) % 17)
	}
}

// BenchmarkCHPMeasure measures tableau measurement cost.
func BenchmarkCHPMeasure(b *testing.B) {
	t := chp.New(17, rand.New(rand.NewSource(1)))
	for q := 0; q < 17; q++ {
		t.H(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.H(i % 17)
		t.MeasureBit(i % 17)
	}
}

// BenchmarkCHPTransposedGates exercises the word-parallel gate kernels of
// the column-major tableau across representative sizes, including ones
// whose 2n+1 rows span multiple 64-bit column words (n ≥ 32).
func BenchmarkCHPTransposedGates(b *testing.B) {
	for _, n := range []int{17, 49, 81} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := chp.New(n, rand.New(rand.NewSource(1)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.H(i % n)
				t.CNOT(i%n, (i+1)%n)
				t.S((i + 2) % n)
				t.Sdg((i + 3) % n)
				t.CZ(i%n, (i+5)%n)
			}
		})
	}
}

// BenchmarkCHPTransposedMeasure exercises both measurement branches of
// the column-major tableau: the H-then-measure loop takes the random
// (word-parallel batch absorb) branch, the re-measure the deterministic
// (per-column popcount) branch.
func BenchmarkCHPTransposedMeasure(b *testing.B) {
	for _, n := range []int{17, 49, 81} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := chp.New(n, rand.New(rand.NewSource(1)))
			for q := 0; q < n; q++ {
				t.H(q)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.H(i % n)
				t.MeasureBit(i % n)
				t.MeasureBit(i % n)
			}
		})
	}
}

// BenchmarkStatevecGate measures state-vector gate application at the
// 17-qubit plane size.
func BenchmarkStatevecGate(b *testing.B) {
	s := statevec.New(17, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyGate(gates.H, i%17)
	}
}

// BenchmarkStatevecCNOT measures two-qubit application cost.
func BenchmarkStatevecCNOT(b *testing.B) {
	s := statevec.New(17, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyGate(gates.CNOT, i%17, (i+1)%17)
	}
}

// BenchmarkPFUProcess measures the Pauli arbiter's routing throughput —
// the operation the thesis proposes to put in hardware. The output
// buffer is reused, as the Pauli frame layer does, and the benchmark
// fails if Process allocates.
func BenchmarkPFUProcess(b *testing.B) {
	u := core.NewPFU(17)
	ops := []circuit.Operation{
		circuit.NewOp(gates.X, 3),
		circuit.NewOp(gates.H, 3),
		circuit.NewOp(gates.CNOT, 3, 4),
		circuit.NewOp(gates.Z, 4),
	}
	dst := make([]circuit.Operation, 0, 4)
	process := func(op circuit.Operation) {
		var err error
		if dst, err = u.Process(dst[:0], op); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		process(ops[i%len(ops)])
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() {
		for _, op := range ops {
			process(op)
		}
	}); allocs != 0 {
		b.Fatalf("Process allocates %.0f times per pass over the ops", allocs)
	}
}

// BenchmarkDecoderLUT measures windowed decoding cost.
func BenchmarkDecoderLUT(b *testing.B) {
	lut := decoder.BuildLUT(surface.ZSupports(surface.RotNormal), surface.NumData)
	w := decoder.NewWindowDecoder(lut)
	s := lut.SyndromeOf([]int{4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Decode(s, s)
	}
}

// BenchmarkPauliFrameLayerRandomCircuit measures the layer's circuit
// rewriting over the thesis gate set: one 1000-gate Clifford circuit on
// 10 qubits through PF → ChpCore per iteration. The stack is built once
// and Reset per iteration, so the timing is the layer and the tableau,
// not their construction; the circuit holds no measurement, so the
// tableau never draws from its RNG.
func BenchmarkPauliFrameLayerRandomCircuit(b *testing.B) {
	circ := randcirc.Generate(randcirc.Config{Qubits: 10, Gates: 1000, CliffordOnly: true},
		rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(2))
	ch := layers.NewChpCore(rng)
	pf := layers.NewPauliFrameLayer(ch)
	if err := pf.CreateQubits(10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Reset(rng)
		pf.Reset()
		if _, err := qpdo.Run(pf, circ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTTest measures the statistics kernel.
func BenchmarkTTest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.TTestIndependent(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSharedVsDedicatedESM compares the two ancilla
// provisioning modes' circuit sizes (DESIGN.md ablation).
func BenchmarkAblationSharedVsDedicatedESM(b *testing.B) {
	mk := func(mode surface.AncillaMode) *surface.Star {
		st := &surface.Star{Mode: mode}
		for i := 0; i < surface.NumData; i++ {
			st.Data[i] = i
		}
		for i := 0; i < surface.NumAncilla; i++ {
			if mode == surface.AncillaSharedSingle {
				st.Anc[i] = surface.NumData
			} else {
				st.Anc[i] = surface.NumData + i
			}
		}
		return st
	}
	ded, shr := mk(surface.AncillaDedicated), mk(surface.AncillaSharedSingle)
	var dedSlots, shrSlots int
	for i := 0; i < b.N; i++ {
		dedSlots = ded.ESMCircuit().NumSlots()
		shrSlots = shr.ESMCircuit().NumSlots()
	}
	logSeries(b, "ablation-esm",
		"ablation: parallel ESM %d slots vs serialized shared-ancilla ESM %d slots",
		dedSlots, shrSlots)
}

// BenchmarkAblationErrorLayerOverhead compares a window with and without
// the error layer in the stack (DESIGN.md ablation: stack position cost).
func BenchmarkAblationErrorLayerOverhead(b *testing.B) {
	build := func(withErr bool) *surface.NinjaStarLayer {
		var stack qpdo.Core = layers.NewChpCore(rand.New(rand.NewSource(1)))
		if withErr {
			stack = layers.NewErrorLayer(stack, 1e-3, rand.New(rand.NewSource(2)))
		}
		l := surface.NewNinjaStarLayer(stack, surface.Config{Ancilla: surface.AncillaDedicated})
		if err := l.CreateQubits(1); err != nil {
			b.Fatal(err)
		}
		if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0)); err != nil {
			b.Fatal(err)
		}
		return l
	}
	b.Run("bare", func(b *testing.B) {
		l := build(false)
		for i := 0; i < b.N; i++ {
			if _, err := l.RunWindow(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("with-error-layer", func(b *testing.B) {
		l := build(true)
		for i := 0; i < b.N; i++ {
			if _, err := l.RunWindow(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
