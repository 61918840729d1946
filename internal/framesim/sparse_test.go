package framesim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/gates"
	"repro/internal/layers"
)

// sparseScript draws a random script over `rounds` ESM rounds with the
// given per-site density (white-box twin of the diff_test generator).
func sparseScript(rng *rand.Rand, sites []Site, rounds int, density float64) Script {
	paulis := []PauliErr{ErrX, ErrY, ErrZ}
	script := Script{}
	for _, site := range sites {
		for r := 0; r < rounds; r++ {
			if rng.Float64() >= density {
				continue
			}
			site.Round = r
			switch site.Kind {
			case KindMeas:
				script[site] = [2]PauliErr{ErrX}
			case KindPair:
				pp := [2]PauliErr{PauliErr(rng.Intn(4)), PauliErr(rng.Intn(4))}
				if pp[0] == ErrNone && pp[1] == ErrNone {
					pp[0] = paulis[rng.Intn(3)]
				}
				script[site] = pp
			default:
				script[site] = [2]PauliErr{paulis[rng.Intn(3)]}
			}
		}
	}
	return script
}

func requireEqualPlanes(t *testing.T, label string, span int, dense, sparse *Batch, dirty uint64) {
	t.Helper()
	for q := 0; q < dense.n; q++ {
		if dense.fx[q] != sparse.fx[q] || dense.fz[q] != sparse.fz[q] {
			t.Fatalf("%s span %d: qubit %d planes diverge: dense (%#x,%#x) sparse (%#x,%#x)",
				label, span, q, dense.fx[q], dense.fz[q], sparse.fx[q], sparse.fz[q])
		}
		bit := uint64(1) << uint(q)
		if got, want := dirty&bit != 0, sparse.fx[q]|sparse.fz[q] != 0; got != want {
			t.Fatalf("%s span %d: qubit %d dirty bit %v, planes nonzero %v", label, span, q, got, want)
		}
	}
}

// TestSparseScriptedSpanEquality drives the dense and sparse tape
// executors side by side through scripted noisy ESM spans interleaved
// with noiseless diagnostic and probe spans, requiring bit-identical
// frame planes and outcome words after every span — the strongest
// statement of walker correctness, independent of the window plumbing.
// The dirty mask is cross-checked against the planes at every span, and
// low DenseThreshold values force the mid-tape dense drain.
func TestSparseScriptedSpanEquality(t *testing.T) {
	const rounds = 36
	for _, tc := range []struct {
		name      string
		obs       Observable
		density   float64
		threshold int
		seed      int64
	}{
		{"X/empty", ObserveX, 0, 0, 1},
		{"X/sparse", ObserveX, 0.004, 0, 2},
		{"X/mid", ObserveX, 0.03, 0, 3},
		{"X/dense", ObserveX, 0.15, 0, 4},
		{"Z/sparse", ObserveZ, 0.004, 0, 5},
		{"Z/dense", ObserveZ, 0.15, 0, 6},
		{"X/drain-always", ObserveX, 0.03, 1, 7},
		{"X/drain-early", ObserveX, 0.08, 2, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Observable:     tc.obs,
				Model:          layers.Depolarizing(1e-3), // ignored: scripted
				RefSeed:        7,
				DenseThreshold: tc.threshold,
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSparse(cfg)
			if err != nil {
				t.Fatal(err)
			}
			script := sparseScript(rand.New(rand.NewSource(tc.seed)), e.ESMSites(), rounds, tc.density)
			dst := e.newRunState([]int64{0}, script)
			sst := s.newRunState([]int64{0}, script)
			probeT := indexTape(e.probe, e.corrPair)
			outD := make([]uint64, e.esm.NumMeas())
			outS := make([]uint64, e.esm.NumMeas())
			probeD := make([]uint64, e.probe.NumMeas())
			probeS := make([]uint64, e.probe.NumMeas())
			for r := 0; r < rounds; r++ {
				e.runTape(dst, e.esm, e.refESM, true, outD)
				s.runTape(sst, s.esmT, e.refESM, true, outS)
				dst.round++
				sst.round++
				if !equalWords(outD, outS) {
					t.Fatalf("noisy span %d: outcome words diverge", r)
				}
				requireEqualPlanes(t, "noisy", r, dst.b, sst.b, sst.dirty)
				if r%3 == 2 {
					e.runTape(dst, e.esm, e.refESM, false, outD)
					s.runTape(sst, s.esmT, e.refESM, false, outS)
					if !equalWords(outD, outS) {
						t.Fatalf("diag span %d: outcome words diverge", r)
					}
					e.runTape(dst, e.probe, e.refProbe, false, probeD)
					s.runTape(sst, probeT, e.refProbe, false, probeS)
					if !equalWords(probeD, probeS) {
						t.Fatalf("probe span %d: outcome words diverge", r)
					}
					requireEqualPlanes(t, "probe", r, dst.b, sst.b, sst.dirty)
				}
			}
		})
	}
}

// TestSparseScriptedMatchesCoreFrame is the width-1 property test: the
// sparse walker's lane records must equal a scalar core.Frame replica
// driven through the same tape ops and scripted errors. Scripted
// injection broadcasts to all lanes, so one replica pins every lane; we
// check the two edge lanes.
func TestSparseScriptedMatchesCoreFrame(t *testing.T) {
	const rounds = 24
	cfg := Config{
		Observable: ObserveX,
		Model:      layers.Depolarizing(1e-3),
		RefSeed:    7,
	}
	s, err := NewSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &s.Engine
	script := sparseScript(rand.New(rand.NewSource(11)), e.ESMSites(), rounds, 0.05)
	sst := s.newRunState([]int64{0}, script)
	f := core.NewFrame(e.n)
	out := make([]uint64, e.esm.NumMeas())
	for r := 0; r < rounds; r++ {
		s.runTape(sst, s.esmT, e.refESM, true, out)
		replayTapeOnFrame(t, f, e.esm, script, sst.round)
		sst.round++
		for q := 0; q < e.n; q++ {
			want := f.Record(q)
			for _, lane := range []int{0, 63} {
				if got := sst.b.Record(q, lane); got != want {
					t.Fatalf("round %d qubit %d lane %d: sparse %v, core.Frame %v", r, q, lane, got, want)
				}
			}
		}
	}
}

// replayTapeOnFrame replays one scripted noisy tape execution on a scalar
// core.Frame: Cliffords conjugate, Prep resets, scripted errors track as
// Paulis, and reference-only Pauli gates commute through.
func replayTapeOnFrame(t *testing.T, f *core.Frame, tape *Tape, script Script, round int) {
	t.Helper()
	track := func(p PauliErr, q int) {
		if g := p.Gate(); g != nil {
			if err := f.TrackPauli(g.Name, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	clifford := func(name gates.Name, qs ...int) {
		if err := f.MapClifford(name, qs); err != nil {
			t.Fatal(err)
		}
	}
	for i := range tape.ops {
		op := &tape.ops[i]
		a := int(op.a)
		switch op.code {
		case opH:
			clifford(gates.GateH, a)
		case opS:
			clifford(gates.GateS, a)
		case opSdg:
			clifford(gates.GateSdg, a)
		case opCNOT:
			clifford(gates.GateCNOT, a, int(op.b))
		case opCZ:
			clifford(gates.GateCZ, a, int(op.b))
		case opSWAP:
			clifford(gates.GateSWAP, a, int(op.b))
		case opX, opY, opZ:
			// Applied in reference and shots alike: frame unchanged.
		case opPrep:
			f.Reset(a)
		case opMeas:
			// Scripted mode: no gauge randomization, frame unchanged.
		case opErrSingle:
			if pp, ok := script[Site{round, int(op.slot), KindSingle, a, -1}]; ok {
				track(pp[0], a)
			}
		case opErrMeas:
			if pp, ok := script[Site{round, int(op.slot), KindMeas, a, -1}]; ok {
				track(pp[0], a)
			}
		case opErrPair:
			if pp, ok := script[Site{round, int(op.slot), KindPair, a, int(op.b)}]; ok {
				track(pp[0], a)
				track(pp[1], int(op.b))
			}
		}
	}
}

// TestSparseZeroNoise pins the degenerate sweep: with a zero-rate model
// the sparse engine must skip straight to MaxWindows and report exactly
// the dense engine's accounting.
func TestSparseZeroNoise(t *testing.T) {
	cfg := Config{
		Observable: ObserveX,
		Model:      layers.Model{},
		MaxWindows: 5000,
	}
	s, err := NewSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sparseRes, err := s.RunBatch(42, 64)
	if err != nil {
		t.Fatal(err)
	}
	denseRes, err := e.RunBatch(42, 64)
	if err != nil {
		t.Fatal(err)
	}
	for j := range sparseRes {
		if sparseRes[j] != denseRes[j] {
			t.Fatalf("lane %d: sparse %+v, dense %+v", j, sparseRes[j], denseRes[j])
		}
		if sparseRes[j].Windows != 5000 || sparseRes[j].LogicalErrors != 0 {
			t.Fatalf("lane %d: zero-noise run reported %+v", j, sparseRes[j])
		}
	}
}

// TestSparseWindowLoopAllocFree pins the steady-state allocation budget
// of the shared window loop at zero on every engine and lane width:
// growing MaxWindows by an order of magnitude must not change the
// per-batch allocation count (the fixed setup cost is the run state
// itself). The collector is off while counting: a GC cycle may allocate
// on the runtime's behalf, and longer batches see more of them.
func TestSparseWindowLoopAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type batcher interface {
		RunBatchWide(seeds []int64, shots int) ([]ShotResult, error)
	}
	engines := []struct {
		name  string
		build func(cfg Config) (batcher, error)
	}{
		{"dense", func(cfg Config) (batcher, error) { e, err := New(cfg); return e, err }},
		{"steane", func(cfg Config) (batcher, error) { e, err := NewSteane(cfg); return e, err }},
		{"sparse", func(cfg Config) (batcher, error) { e, err := NewSparse(cfg); return e, err }},
	}
	for _, eng := range engines {
		for _, w := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/lanes=%d", eng.name, w), func(t *testing.T) {
				seeds := make([]int64, w)
				for k := range seeds {
					seeds[k] = int64(9 + k)
				}
				allocs := func(maxWindows int) float64 {
					e, err := eng.build(Config{
						Observable:       ObserveX,
						Model:            layers.Depolarizing(2e-3),
						MaxWindows:       maxWindows,
						MaxLogicalErrors: 1 << 30,
					})
					if err != nil {
						t.Fatal(err)
					}
					return testing.AllocsPerRun(5, func() {
						if _, err := e.RunBatchWide(seeds, 64*w); err != nil {
							t.Fatal(err)
						}
					})
				}
				if short, long := allocs(300), allocs(3000); short != long {
					t.Fatalf("window loop allocates: %v allocs at 300 windows, %v at 3000", short, long)
				}
			})
		}
	}
}
