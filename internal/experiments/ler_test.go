package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestRunLERZeroNoise(t *testing.T) {
	r, err := RunLER(LERConfig{PER: 0, MaxWindows: 50, MaxLogicalErrors: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Windows != 50 || r.LogicalErrors != 0 || r.LER != 0 {
		t.Errorf("zero-noise run: %+v", r)
	}
	if r.CorrectionGates != 0 {
		t.Errorf("zero-noise corrections: %d", r.CorrectionGates)
	}
	// 50 windows × 2 ESM rounds × 48 ops flow through the counters.
	if r.OpsIssued != 50*2*48 {
		t.Errorf("OpsIssued = %d, want %d", r.OpsIssued, 50*2*48)
	}
	if r.OpsExecuted != r.OpsIssued {
		t.Error("without corrections nothing should differ across the PF position")
	}
}

// TestRunLERRejectsNaNRate: a NaN channel rate is a configuration error
// on every engine, never a silent LER of 0 (or a panic in the stack's
// error layer).
func TestRunLERRejectsNaNRate(t *testing.T) {
	for _, engine := range []Engine{EngineStack, EngineFrameSim, EngineSparse} {
		r, err := RunLER(LERConfig{Engine: engine, PER: math.NaN(), MaxWindows: 5, MaxLogicalErrors: 1, Seed: 1})
		if err == nil {
			t.Errorf("%v: NaN PER accepted, got %+v", engine, r)
		}
	}
}

// TestRunLERRejectsWhatTheCodeCannotRun: the surface plane and the
// two-star computation run on the stack only and count logical X errors
// only, and Distance belongs to the plane. Each mismatch is an error
// before any run, never a silent SC17 run or a run at another distance.
func TestRunLERRejectsWhatTheCodeCannotRun(t *testing.T) {
	cases := []struct {
		name string
		cfg  LERConfig
	}{
		{"surface/framesim", LERConfig{Engine: EngineFrameSim, Code: CodeSurface}},
		{"surface/sparse", LERConfig{Engine: EngineSparse, Code: CodeSurface}},
		{"computation/framesim", LERConfig{Engine: EngineFrameSim, Code: CodeComputation}},
		{"computation/sparse", LERConfig{Engine: EngineSparse, Code: CodeComputation}},
		{"surface/logical-z", LERConfig{Code: CodeSurface, ErrorType: LogicalZ}},
		{"computation/logical-z", LERConfig{Code: CodeComputation, ErrorType: LogicalZ}},
		{"sc17/distance", LERConfig{Distance: 3}},
		{"sc17-framesim/distance", LERConfig{Engine: EngineFrameSim, Distance: 5}},
		{"steane/distance", LERConfig{Code: CodeSteane, Distance: 3}},
		{"computation/distance", LERConfig{Code: CodeComputation, Distance: 3}},
		{"surface/even-distance", LERConfig{Code: CodeSurface, Distance: 4}},
		{"surface/negative-distance", LERConfig{Code: CodeSurface, Distance: -3}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.PER, cfg.MaxWindows, cfg.MaxLogicalErrors, cfg.Seed = 1e-3, 5, 1, 1
		if r, err := RunLER(cfg); err == nil {
			t.Errorf("%s: accepted, got %+v", tc.name, r)
		}
	}
}

func TestRunLERScalesQuadratically(t *testing.T) {
	// Below the pseudo-threshold the d=3 code suppresses errors like p²;
	// compare LER at two rates differing by 3× and require superlinear
	// scaling (ratio well above 3, well below 27).
	lo, err := RunLER(LERConfig{PER: 5e-4, MaxLogicalErrors: 30, MaxWindows: 600000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := RunLER(LERConfig{PER: 1.5e-3, MaxLogicalErrors: 30, MaxWindows: 600000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ratio := hi.LER / lo.LER
	if ratio < 4 || ratio > 30 {
		t.Errorf("LER ratio for 3× PER = %.2f (lo=%.2e hi=%.2e), want quadratic-ish",
			ratio, lo.LER, hi.LER)
	}
}

func TestRunLERBothErrorTypes(t *testing.T) {
	// X and Z experiments should give similar LERs under the symmetric
	// depolarizing model (thesis §5.3.2).
	x, err := RunLER(LERConfig{PER: 2e-3, ErrorType: LogicalX, MaxLogicalErrors: 25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	z, err := RunLER(LERConfig{PER: 2e-3, ErrorType: LogicalZ, MaxLogicalErrors: 25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if x.LER <= 0 || z.LER <= 0 {
		t.Fatalf("LERs: X=%v Z=%v", x.LER, z.LER)
	}
	ratio := x.LER / z.LER
	if ratio < 0.25 || ratio > 4 {
		t.Errorf("X/Z LER asymmetry: %.2f (X=%.2e Z=%.2e)", ratio, x.LER, z.LER)
	}
}

func TestPauliFrameSavings(t *testing.T) {
	// With a Pauli frame the correction gates and slots are absorbed:
	// executed < issued, bounded by the 1/17 slot share (thesis §5.3.2).
	r, err := RunLER(LERConfig{PER: 5e-3, WithPauliFrame: true, MaxLogicalErrors: 25, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.CorrectionGates == 0 {
		t.Fatal("no corrections issued at p=5e-3")
	}
	g, s := r.GatesSavedFrac(), r.SlotsSavedFrac()
	if g <= 0 || s <= 0 {
		t.Errorf("savings not positive: gates=%v slots=%v", g, s)
	}
	if s > 1.0/17+0.01 {
		t.Errorf("slot savings %v exceed the 1/17 bound", s)
	}
	if g > 0.05 {
		t.Errorf("gate savings %v implausibly high", g)
	}
	// Issued - executed must equal the issued correction gates exactly.
	if r.OpsIssued-r.OpsExecuted != r.CorrectionGates {
		t.Errorf("absorbed ops %d != correction gates %d",
			r.OpsIssued-r.OpsExecuted, r.CorrectionGates)
	}
	if r.SlotsIssued-r.SlotsExecuted != r.CorrectionSlots {
		t.Errorf("absorbed slots %d != correction slots %d",
			r.SlotsIssued-r.SlotsExecuted, r.CorrectionSlots)
	}

	// Without the frame nothing is absorbed.
	r2, err := RunLER(LERConfig{PER: 5e-3, WithPauliFrame: false, MaxLogicalErrors: 25, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r2.GatesSavedFrac() != 0 || r2.SlotsSavedFrac() != 0 {
		t.Error("savings without a Pauli frame should be zero")
	}
}

// TestPFDoesNotChangeLER is the headline claim at test scale: the LER
// with and without Pauli frame agree within statistical noise.
func TestPFDoesNotChangeLER(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison skipped in -short mode")
	}
	cfg := SweepConfig{
		PERs:             []float64{2e-3},
		Samples:          6,
		MaxLogicalErrors: 20,
		BaseSeed:         100,
	}
	pair, err := RunPairedSweeps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	without := pair.Without[0].MeanLER()
	with := pair.With[0].MeanLER()
	if without <= 0 || with <= 0 {
		t.Fatalf("degenerate LERs: %v / %v", without, with)
	}
	ratio := without / with
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("PF changed LER by factor %.2f (without=%.2e with=%.2e)", ratio, without, with)
	}
	ts, err := pair.TTestSeries()
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].IndependentP < 0.01 {
		t.Errorf("independent t-test claims significance: p=%v", ts[0].IndependentP)
	}
}

func TestSweepAndAnalysis(t *testing.T) {
	cfg := SweepConfig{
		PERs:             []float64{1e-3, 3e-3},
		Samples:          3,
		MaxLogicalErrors: 8,
		BaseSeed:         42,
	}
	pair, err := RunPairedSweeps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pair.Without) != 2 || len(pair.With) != 2 {
		t.Fatalf("sweep lengths: %d/%d", len(pair.Without), len(pair.With))
	}
	diffs := pair.DiffSeries()
	if len(diffs) != 2 || diffs[0].SigmaMax < 0 {
		t.Errorf("diff series: %+v", diffs)
	}
	cvs := pair.CVSeries()
	if len(cvs) != 2 || cvs[0].CVWithout <= 0 {
		t.Errorf("cv series: %+v", cvs)
	}
	ts, err := pair.TTestSeries()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ts {
		if p.IndependentP < 0 || p.IndependentP > 1 || p.PairedPVal < 0 || p.PairedPVal > 1 {
			t.Errorf("p-values out of range: %+v", p)
		}
	}
	if Significant(ts) {
		t.Log("warning: small-sample t-test flagged significance (possible noise)")
	}
	tbl := Table(pair.Without, "test")
	if !strings.Contains(tbl, "PER") || !strings.Contains(tbl, "0.00000") {
		t.Errorf("table rendering: %q", tbl)
	}
	csv := CSV(pair.Without)
	if !strings.HasPrefix(csv, "per,") || strings.Count(csv, "\n") != 3 {
		t.Errorf("csv rendering: %q", csv)
	}
}

func TestUpperBound(t *testing.T) {
	// Thesis Eq. 5.12 / Fig 5.27: 1/((d−1)·tsESM + 1).
	if got := UpperBoundRelativeImprovement(3, 8); math.Abs(got-1.0/17) > 1e-12 {
		t.Errorf("bound(3,8) = %v, want 1/17", got)
	}
	prev := 1.0
	for d := 3; d <= 11; d += 2 {
		b := UpperBoundRelativeImprovement(d, 8)
		if b >= prev {
			t.Errorf("bound not decreasing at d=%d", d)
		}
		prev = b
	}
	if b := UpperBoundRelativeImprovement(5, 8); b > 0.031 {
		t.Errorf("bound(5,8) = %v, should drop below 3%% (thesis Fig 5.27)", b)
	}
	if b := UpperBoundRelativeImprovement(5, 1<<62); !(b > 0 && b < 1e-18) {
		t.Errorf("bound(5, 2^62) = %v, want a positive value below 1e-18 ((d−1)·tsESM+1 must not overflow)", b)
	}
	if !math.IsNaN(UpperBoundRelativeImprovement(1, 8)) {
		t.Error("degenerate distance should give NaN")
	}
	if WindowTimeSlots(3, 8, true) != 17 || WindowTimeSlots(3, 8, false) != 16 {
		t.Error("window time-slot accounting wrong")
	}
}

func TestLogSpace(t *testing.T) {
	xs := LogSpace(1e-4, 1e-2, 5)
	if len(xs) != 5 {
		t.Fatalf("len = %d", len(xs))
	}
	if math.Abs(xs[0]-1e-4) > 1e-12 || math.Abs(xs[4]-1e-2) > 1e-12 {
		t.Errorf("endpoints: %v", xs)
	}
	if math.Abs(xs[2]-1e-3) > 1e-9 {
		t.Errorf("midpoint: %v", xs[2])
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Error("not increasing")
		}
	}
}

func TestPseudoThresholdEstimate(t *testing.T) {
	// Synthetic quadratic LER data crossing y=x at 1/c.
	pts := []PointResult{}
	c := 2500.0
	for _, p := range []float64{1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3} {
		pts = append(pts, PointResult{PER: p, LERs: []float64{c * p * p}})
	}
	th := PseudoThreshold(pts)
	if math.Abs(th-1/c)/th > 0.3 {
		t.Errorf("pseudo-threshold = %v, want ≈%v", th, 1/c)
	}
}
