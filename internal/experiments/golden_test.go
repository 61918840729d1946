package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
)

// The golden values below were produced by the row-major CHP kernel
// before the column-major transpose (PR 2) and pin the exact seeded
// measurement stream: any change to gate semantics, RNG draw order or
// sweep sharding shows up as a count mismatch here. Regenerate only when
// a deliberate semantic change is made, and say so in the PR.

type goldenSweepPoint struct {
	per     float64
	lers    []float64
	windows []float64
	gates   []float64
}

var goldenSweep = map[bool][]goldenSweepPoint{
	false: {
		{3e-3, []float64{0.021164021164021163, 0.037383177570093455}, []float64{189, 107}, []float64{0, 0}},
		{8e-3, []float64{0.06666666666666667, 0.07407407407407407}, []float64{60, 54}, []float64{0, 0}},
	},
	true: {
		{3e-3, []float64{0.02631578947368421, 0.015444015444015444}, []float64{152, 259}, []float64{0.003959044368600682, 0.004683559505223971}},
		{8e-3, []float64{0.08163265306122448, 0.06666666666666667}, []float64{49, 60}, []float64{0.009058352643775016, 0.009628610729023384}},
	},
}

func floatsEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-15*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestGoldenSeededSweep runs a seeded mini LER sweep (two PER points, two
// samples each, with and without the Pauli frame) and checks the exact
// per-sample LERs, window counts and gate savings against the golden
// values recorded from the pre-transpose kernel.
func TestGoldenSeededSweep(t *testing.T) {
	for _, withPF := range []bool{false, true} {
		pts, err := RunSweep(SweepConfig{
			PERs:             []float64{3e-3, 8e-3},
			Samples:          2,
			WithPauliFrame:   withPF,
			MaxLogicalErrors: 4,
			MaxWindows:       3000,
			BaseSeed:         424242,
			Workers:          3,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := goldenSweep[withPF]
		if len(pts) != len(want) {
			t.Fatalf("pf=%v: got %d points, want %d", withPF, len(pts), len(want))
		}
		for i, pt := range pts {
			g := want[i]
			if !floatsEqual(pt.PER, g.per) {
				t.Errorf("pf=%v point %d: PER=%g want %g", withPF, i, pt.PER, g.per)
			}
			if len(pt.LERs) != len(g.lers) || len(pt.WindowCounts) != len(g.windows) || len(pt.GatesSaved) != len(g.gates) {
				t.Fatalf("pf=%v point %d: sample count mismatch: %+v", withPF, i, pt)
			}
			for s := range g.lers {
				if !floatsEqual(pt.LERs[s], g.lers[s]) {
					t.Errorf("pf=%v point %d sample %d: LER=%v want %v", withPF, i, s, pt.LERs[s], g.lers[s])
				}
				if pt.WindowCounts[s] != g.windows[s] {
					t.Errorf("pf=%v point %d sample %d: windows=%v want %v", withPF, i, s, pt.WindowCounts[s], g.windows[s])
				}
				if !floatsEqual(pt.GatesSaved[s], g.gates[s]) {
					t.Errorf("pf=%v point %d sample %d: gatesSaved=%v want %v", withPF, i, s, pt.GatesSaved[s], g.gates[s])
				}
			}
		}
	}
}

// TestGoldenGenericSweep pins the distance-parameterized generic sweep
// the same way.
func TestGoldenGenericSweep(t *testing.T) {
	rs, err := RunGenericLERSweep(GenericLERConfig{
		PER:              4e-3,
		MaxLogicalErrors: 3,
		MaxWindows:       400,
		Seed:             777,
		Workers:          2,
	}, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		windows, errors, injected int
		ler                       float64
	}{
		{116, 3, 113, 0.02586206896551724},
		{34, 3, 181, 0.08823529411764706},
	}
	if len(rs) != len(want) {
		t.Fatalf("got %d results, want %d", len(rs), len(want))
	}
	for i, r := range rs {
		g := want[i]
		if r.Windows != g.windows || r.LogicalErrors != g.errors || r.InjectedErrors != g.injected {
			t.Errorf("d-point %d: windows/errors/injected = %d/%d/%d, want %d/%d/%d",
				i, r.Windows, r.LogicalErrors, r.InjectedErrors, g.windows, g.errors, g.injected)
		}
		if !floatsEqual(r.LER, g.ler) {
			t.Errorf("d-point %d: LER=%v want %v", i, r.LER, g.ler)
		}
	}
}

// TestGoldenFrameSweep pins the SC17 frame engines' sampled bits: the
// SHA-256 of json.Marshal of the folded []PointResult for small seeded
// sweeps on the dense engine (1 and 8 lanes, with and without the Pauli
// frame, both observables), on the sparse engine below threshold where
// the quiet-window skip carries the run, and on one adaptive sparse
// sweep. Any change to the RNG draw order, the decode, the window loop
// or the shot accounting shows up here. Regenerate only with a
// deliberate semantic change, and say so in the change log.
func TestGoldenFrameSweep(t *testing.T) {
	dense := func(lanes int, pf bool, et ErrorType, seed int64) SweepConfig {
		return SweepConfig{
			Engine:           EngineFrameSim,
			PERs:             []float64{2e-3, 6e-3},
			Samples:          320,
			ErrorType:        et,
			WithPauliFrame:   pf,
			MaxLogicalErrors: 3,
			MaxWindows:       1500,
			BaseSeed:         seed,
			Lanes:            lanes,
		}
	}
	sparse := func(lanes int, pf bool, et ErrorType, seed int64) SweepConfig {
		return SweepConfig{
			Engine:           EngineSparse,
			PERs:             []float64{2e-5, 1e-4},
			Samples:          192,
			ErrorType:        et,
			WithPauliFrame:   pf,
			MaxLogicalErrors: 3,
			MaxWindows:       20000,
			BaseSeed:         seed,
			Lanes:            lanes,
		}
	}
	adaptive := SweepConfig{
		Engine:           EngineSparse,
		PERs:             []float64{1e-4, 4e-3},
		Samples:          1024,
		MaxLogicalErrors: 1 << 30,
		MaxWindows:       400,
		BaseSeed:         6021,
		AdaptRelWidth:    0.3,
		AdaptMinSamples:  64,
		AdaptBatch:       128,
	}
	cases := []struct {
		name   string
		cfg    SweepConfig
		digest string
	}{
		{"framesim/lanes1/pf-off/x", dense(1, false, LogicalX, 9101), "d0bc65e12dad73d511b725ddcfa798409dd88340a9e97187dfe0c04a13e7059d"},
		{"framesim/lanes1/pf-on/z", dense(1, true, LogicalZ, 9102), "8867165f470c1cddf905d8770de384e3b1635379fd4c831a1571981c2814359d"},
		{"framesim/lanes8/pf-on/x", dense(8, true, LogicalX, 9103), "65f840f45b89c595ebfda686a7b87a60e52f04a12a2a6a4547e0596ee4c45066"},
		{"framesim/lanes8/pf-off/z", dense(8, false, LogicalZ, 9104), "f6d12ea5ff7f278b16ad30cdc1a9431bed2630d2d62e4671ea8c317bb5af0415"},
		{"sparse/lanes1/pf-on/x", sparse(1, true, LogicalX, 9105), "16f5831cf1d5b0508ca60ea426d7a160a9ab651c6050a8025dc4881f3c304ba4"},
		{"sparse/lanes2/pf-off/z", sparse(2, false, LogicalZ, 9106), "66f40274eb23437cee96a29711bcf37de85005f9b60a09ce9d8dd61253522550"},
		{"sparse/adaptive", adaptive, "d5147b7c4f5bc95b66c653534517d2e12337a0b9b7331ecc9171691132bd3cd8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
					t.Errorf("workers=%d: folded digest %s, want %s", workers, got, tc.digest)
				}
			}
		})
	}
}
