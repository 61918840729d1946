package surface

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/pauli"
	"repro/internal/qpdo"
)

// TestESMStructure reproduces thesis Table 5.8: the full parallel ESM
// circuit has 8 time slots and 48 operations with the documented
// composition.
func TestESMStructure(t *testing.T) {
	st := &Star{Mode: AncillaDedicated}
	for i := 0; i < NumData; i++ {
		st.Data[i] = i
	}
	for i := 0; i < NumAncilla; i++ {
		st.Anc[i] = NumData + i
	}
	c := st.ESMCircuit()
	if err := c.Validate(); err != nil {
		t.Fatalf("ESM circuit invalid: %v", err)
	}
	if c.NumSlots() != 8 {
		t.Fatalf("ESM slots = %d, want 8", c.NumSlots())
	}
	if c.NumOps() != 48 {
		t.Fatalf("ESM ops = %d, want 48", c.NumOps())
	}
	wantPerSlot := []int{4, 8, 6, 6, 6, 6, 4, 8}
	cnots := 0
	for i, slot := range c.Slots {
		if len(slot.Ops) != wantPerSlot[i] {
			t.Errorf("slot %d has %d ops, want %d", i+1, len(slot.Ops), wantPerSlot[i])
		}
		for _, op := range slot.Ops {
			if op.Gate == gates.CNOT {
				cnots++
			}
		}
	}
	if cnots != 24 {
		t.Errorf("CNOT count = %d, want 24", cnots)
	}
	// Rotated orientation keeps the same shape.
	st.Rotation = RotRotated
	c2 := st.ESMCircuit()
	if err := c2.Validate(); err != nil {
		t.Fatalf("rotated ESM invalid: %v", err)
	}
	if c2.NumSlots() != 8 || c2.NumOps() != 48 {
		t.Errorf("rotated ESM: slots=%d ops=%d", c2.NumSlots(), c2.NumOps())
	}
	// Z-only dance mode drops the X-check machinery.
	st.Rotation = RotNormal
	st.Dance = DanceZOnly
	c3 := st.ESMCircuit()
	if err := c3.Validate(); err != nil {
		t.Fatalf("z-only ESM invalid: %v", err)
	}
	if c3.NumSlots() != 6 {
		t.Errorf("z-only ESM slots = %d, want 6", c3.NumSlots())
	}
	if got := c3.CountClass(gates.ClassMeasure); got != 4 {
		t.Errorf("z-only measurements = %d, want 4", got)
	}
}

// TestProbeCircuitsMemoized checks that the logical probes are built
// once per rotation and follow the star's current rotation: the chain
// the probe couples to the ancilla is the logical operator of that
// rotation.
func TestProbeCircuitsMemoized(t *testing.T) {
	st := &Star{Mode: AncillaDedicated}
	for i := 0; i < NumData; i++ {
		st.Data[i] = i
	}
	for i := 0; i < NumAncilla; i++ {
		st.Anc[i] = NumData + i
	}
	chain := func(c *circuit.Circuit) []int {
		var qs []int
		for _, slot := range c.Slots {
			for _, op := range slot.Ops {
				if op.Gate == gates.CNOT {
					for _, q := range op.Qubits {
						if q != st.Anc[0] {
							qs = append(qs, q)
						}
					}
				}
			}
		}
		return qs
	}
	for _, rot := range []Rotation{RotNormal, RotRotated} {
		st.Rotation = rot
		for name, probe := range map[string]func() *circuit.Circuit{
			"ZL": st.ProbeZLCircuit, "XL": st.ProbeXLCircuit,
		} {
			c := probe()
			if probe() != c {
				t.Errorf("%s probe rebuilt on a second call (rotation %d)", name, rot)
			}
			want := LogicalZ(rot)
			if name == "XL" {
				want = LogicalX(rot)
			}
			if got := chain(c); !reflect.DeepEqual(got, want) {
				t.Errorf("%s probe at rotation %d couples %v, want %v", name, rot, got, want)
			}
		}
	}
	st.Rotation = RotNormal
	normal := st.ProbeZLCircuit()
	st.Rotation = RotRotated
	if st.ProbeZLCircuit() == normal {
		t.Error("the two rotations share one probe circuit")
	}
}

func TestSpecSupports(t *testing.T) {
	// Thesis Table 2.1 stabilizer supports.
	wantX := [4][]int{{0, 1, 3, 4}, {1, 2}, {4, 5, 7, 8}, {6, 7}}
	wantZ := [4][]int{{0, 3}, {1, 2, 4, 5}, {3, 4, 6, 7}, {5, 8}}
	gotX, gotZ := XSupports(RotNormal), ZSupports(RotNormal)
	for i := range wantX {
		if !eqInts(gotX[i], wantX[i]) {
			t.Errorf("X support %d = %v, want %v", i, gotX[i], wantX[i])
		}
		if !eqInts(gotZ[i], wantZ[i]) {
			t.Errorf("Z support %d = %v, want %v", i, gotZ[i], wantZ[i])
		}
	}
	// Rotation swaps the roles of the hardware groups.
	if !eqInts(XSupports(RotRotated)[0], wantZ[0]) || !eqInts(ZSupports(RotRotated)[0], wantX[0]) {
		t.Error("rotation did not swap check roles")
	}
	// Logical chains (thesis Figs 2.4-2.5).
	if !eqInts(LogicalX(RotNormal), []int{2, 4, 6}) || !eqInts(LogicalZ(RotNormal), []int{0, 4, 8}) {
		t.Error("normal-orientation logical chains wrong")
	}
	if !eqInts(LogicalX(RotRotated), []int{0, 4, 8}) || !eqInts(LogicalZ(RotRotated), []int{2, 4, 6}) {
		t.Error("rotated-orientation logical chains wrong")
	}
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newQxStack builds ninja-star layer → QxCore with n logical qubits.
func newQxStack(t *testing.T, n int, mode AncillaMode, seed int64) (*NinjaStarLayer, *layers.QxCore) {
	t.Helper()
	qx := layers.NewQxCore(rand.New(rand.NewSource(seed)))
	l := NewNinjaStarLayer(qx, Config{Ancilla: mode})
	if err := l.CreateQubits(n); err != nil {
		t.Fatal(err)
	}
	return l, qx
}

// newChpStack builds ninja-star layer → ChpCore.
func newChpStack(t *testing.T, n int, seed int64) (*NinjaStarLayer, *layers.ChpCore) {
	t.Helper()
	ch := layers.NewChpCore(rand.New(rand.NewSource(seed)))
	l := NewNinjaStarLayer(ch, Config{Ancilla: AncillaDedicated})
	if err := l.CreateQubits(n); err != nil {
		t.Fatal(err)
	}
	return l, ch
}

// codewordSupport returns the expected basis states of |b⟩_L as a set of
// 9-bit masks: the X-stabilizer orbit of the all-zeros string, offset by
// the logical X chain for b = 1.
func codewordSupport(one bool) map[uint]bool {
	masks := []uint{}
	for _, sup := range XSupports(RotNormal) {
		m := uint(0)
		for _, d := range sup {
			m |= 1 << uint(d)
		}
		masks = append(masks, m)
	}
	offset := uint(0)
	if one {
		for _, d := range LogicalX(RotNormal) {
			offset |= 1 << uint(d)
		}
	}
	out := map[uint]bool{}
	for combo := 0; combo < 16; combo++ {
		v := offset
		for i, m := range masks {
			if combo&(1<<uint(i)) != 0 {
				v ^= m
			}
		}
		out[v] = true
	}
	return out
}

// dataState extracts the 9-qubit data subsystem of logical qubit 0.
func dataState(t *testing.T, l *NinjaStarLayer, qx *layers.QxCore, q int) map[uint]complex128 {
	t.Helper()
	keep := make([]int, NumData)
	for i := range keep {
		keep[i] = l.Star(q).Data[i]
	}
	sub, err := qx.Vector().ExtractSubsystem(keep)
	if err != nil {
		t.Fatalf("extracting data subsystem: %v", err)
	}
	out := map[uint]complex128{}
	for _, e := range sub.Support(1e-9) {
		out[e.Basis] = e.Amp
	}
	return out
}

// TestInitZeroState reproduces thesis Listing 5.1: after initialization
// the nine data qubits hold the uniform 16-term superposition of even-
// parity codewords with amplitude +0.25.
func TestInitZeroState(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		l, qx := newQxStack(t, 1, AncillaDedicated, int64(100+iter))
		if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0)); err != nil {
			t.Fatal(err)
		}
		got := dataState(t, l, qx, 0)
		want := codewordSupport(false)
		if len(got) != 16 {
			t.Fatalf("iter %d: support size %d, want 16", iter, len(got))
		}
		// Fix the global phase by the first codeword and require all
		// amplitudes equal 0.25 up to it.
		var phase complex128
		for b := range want {
			if a, ok := got[b]; ok {
				phase = a / complex(0.25, 0)
				break
			}
		}
		for b := range want {
			a, ok := got[b]
			if !ok {
				t.Fatalf("iter %d: codeword %09b missing", iter, b)
			}
			if cmplx.Abs(a-phase*complex(0.25, 0)) > 1e-9 {
				t.Fatalf("iter %d: amplitude of %09b = %v", iter, b, a)
			}
		}
		// Parity check: every codeword has even weight (Listing 5.1).
		for b := range got {
			if popcount(b)%2 != 0 {
				t.Fatalf("odd-parity state %09b in |0⟩_L", b)
			}
		}
	}
}

func popcount(v uint) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// TestLogicalOneState reproduces thesis Listing 5.2: |1⟩_L = X_L |0⟩_L
// is the odd-parity coset with uniform amplitudes.
func TestLogicalOneState(t *testing.T) {
	l, qx := newQxStack(t, 1, AncillaDedicated, 200)
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0).Add(gates.X, 0)); err != nil {
		t.Fatal(err)
	}
	got := dataState(t, l, qx, 0)
	want := codewordSupport(true)
	if len(got) != 16 {
		t.Fatalf("support size %d, want 16", len(got))
	}
	for b := range want {
		if _, ok := got[b]; !ok {
			t.Fatalf("codeword %09b missing from |1⟩_L", b)
		}
	}
	for b := range got {
		if popcount(b)%2 != 1 {
			t.Fatalf("even-parity state %09b in |1⟩_L", b)
		}
	}
	if st, _ := l.GetState(); st.Values[0] != qpdo.StateOne {
		t.Error("tracked logical state should be 1 after X_L")
	}
}

// TestLogicalZPhases verifies Z_L |0⟩_L = |0⟩_L and Z_L |1⟩_L = −|1⟩_L
// (thesis §5.1.4).
func TestLogicalZPhases(t *testing.T) {
	l, qx := newQxStack(t, 1, AncillaDedicated, 300)
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0)); err != nil {
		t.Fatal(err)
	}
	before := qx.Vector().Clone()
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Z, 0)); err != nil {
		t.Fatal(err)
	}
	if ok, ph := equalPhase(t, before, qx); !ok || cmplx.Abs(ph-1) > 1e-9 {
		t.Errorf("Z_L|0⟩_L should be +|0⟩_L, phase %v", ph)
	}
	// Now on |1⟩_L.
	if _, err := qpdo.Run(l, circuit.New().Add(gates.X, 0)); err != nil {
		t.Fatal(err)
	}
	before = qx.Vector().Clone()
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Z, 0)); err != nil {
		t.Fatal(err)
	}
	if ok, ph := equalPhase(t, before, qx); !ok || cmplx.Abs(ph+1) > 1e-9 {
		t.Errorf("Z_L|1⟩_L should be −|1⟩_L, phase %v", ph)
	}
}

func equalPhase(t *testing.T, before interface {
	Amplitudes() []complex128
	NumQubits() int
}, qx *layers.QxCore) (bool, complex128) {
	t.Helper()
	a := qx.Vector().Amplitudes()
	b := before.Amplitudes()
	var phase complex128
	for i := range b {
		if cmplx.Abs(b[i]) > 1e-9 {
			phase = a[i] / b[i]
			break
		}
	}
	for i := range b {
		if cmplx.Abs(a[i]-phase*b[i]) > 1e-9 {
			return false, 0
		}
	}
	return true, phase
}

// TestLogicalHadamard verifies H_L |0⟩_L behaves as |+⟩_L: the X_L probe
// reads +1, and after Z_L it reads −1 (thesis §5.1.4).
func TestLogicalHadamard(t *testing.T) {
	l, _ := newQxStack(t, 1, AncillaDedicated, 400)
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0).Add(gates.H, 0)); err != nil {
		t.Fatal(err)
	}
	if l.Star(0).Rotation != RotRotated {
		t.Error("H_L should rotate the lattice")
	}
	out, err := l.ProbeXL(0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 0 {
		t.Errorf("X_L probe on |+⟩_L = %d, want 0 (+1)", out)
	}
	// Z_L flips |+⟩_L to |−⟩_L.
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Z, 0)); err != nil {
		t.Fatal(err)
	}
	out, err = l.ProbeXL(0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 1 {
		t.Errorf("X_L probe on |−⟩_L = %d, want 1 (−1)", out)
	}
	// A second H_L restores the normal orientation and |−⟩_L → |1⟩_L.
	if _, err := qpdo.Run(l, circuit.New().Add(gates.H, 0)); err != nil {
		t.Fatal(err)
	}
	if l.Star(0).Rotation != RotNormal {
		t.Error("second H_L should restore orientation")
	}
	res, err := qpdo.Run(l, circuit.New().Add(gates.Measure, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Last(0) != 1 {
		t.Errorf("H Z H |0⟩_L measured %d, want 1", res.Last(0))
	}
}

// TestLogicalMeasurement checks M_ZL on the computational basis states
// and its property updates (thesis Table 5.3).
func TestLogicalMeasurement(t *testing.T) {
	l, _ := newQxStack(t, 1, AncillaDedicated, 500)
	res, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0).Add(gates.Measure, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Last(0) != 0 {
		t.Errorf("measuring |0⟩_L gave %d", res.Last(0))
	}
	if l.Star(0).Dance != DanceZOnly {
		t.Error("measurement should set dance mode to z_only")
	}
	res, err = qpdo.Run(l, circuit.New().Add(gates.Prep, 0).Add(gates.X, 0).Add(gates.Measure, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Last(0) != 1 {
		t.Errorf("measuring |1⟩_L gave %d", res.Last(0))
	}
}

// TestMeasureXBasis composes H_L + M_ZL into a logical X-basis
// measurement: |+⟩_L reads 0 deterministically, |−⟩_L reads 1.
func TestMeasureXBasis(t *testing.T) {
	l, _ := newQxStack(t, 1, AncillaDedicated, 550)
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0).Add(gates.H, 0)); err != nil {
		t.Fatal(err)
	}
	out, err := l.MeasureX(0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 0 {
		t.Errorf("X-basis measurement of |+⟩_L = %d, want 0", out)
	}
	l2, _ := newQxStack(t, 1, AncillaDedicated, 551)
	if _, err := qpdo.Run(l2, circuit.New().Add(gates.Prep, 0).Add(gates.H, 0).Add(gates.Z, 0)); err != nil {
		t.Fatal(err)
	}
	out, err = l2.MeasureX(0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 1 {
		t.Errorf("X-basis measurement of |−⟩_L = %d, want 1", out)
	}
}

// TestLogicalCNOT reproduces thesis Table 5.5: the CNOT_L truth table on
// the four two-qubit computational basis states (logical qubit 0 is the
// control).
func TestLogicalCNOT(t *testing.T) {
	cases := []struct {
		control, target int
		wantC, wantT    int
	}{
		{0, 0, 0, 0},
		{1, 0, 1, 1},
		{0, 1, 0, 1},
		{1, 1, 1, 0},
	}
	for i, cse := range cases {
		l, _ := newQxStack(t, 2, AncillaSharedSingle, int64(600+i))
		prep := circuit.New().Add(gates.Prep, 0).Add(gates.Prep, 1)
		if cse.control == 1 {
			prep.Add(gates.X, 0)
		}
		if cse.target == 1 {
			prep.Add(gates.X, 1)
		}
		prep.Add(gates.CNOT, 0, 1)
		prep.Add(gates.Measure, 0).Add(gates.Measure, 1)
		res, err := qpdo.Run(l, prep)
		if err != nil {
			t.Fatal(err)
		}
		if res.Last(0) != cse.wantC || res.Last(1) != cse.wantT {
			t.Errorf("|%d%d⟩_L after CNOT_L measured |%d%d⟩, want |%d%d⟩",
				cse.control, cse.target, res.Last(0), res.Last(1), cse.wantC, cse.wantT)
		}
	}
}

// TestLogicalCZ reproduces thesis Table 5.6: CZ_L fixes all four basis
// states and imprints the −1 phase on |11⟩_L.
func TestLogicalCZ(t *testing.T) {
	for i, cse := range []struct{ a, b int }{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		l, qx := newQxStack(t, 2, AncillaSharedSingle, int64(700+i))
		prep := circuit.New().Add(gates.Prep, 0).Add(gates.Prep, 1)
		if cse.a == 1 {
			prep.Add(gates.X, 0)
		}
		if cse.b == 1 {
			prep.Add(gates.X, 1)
		}
		if _, err := qpdo.Run(l, prep); err != nil {
			t.Fatal(err)
		}
		before := qx.Vector().Clone()
		if _, err := qpdo.Run(l, circuit.New().Add(gates.CZ, 0, 1)); err != nil {
			t.Fatal(err)
		}
		ok, ph := equalPhase(t, before, qx)
		if !ok {
			t.Fatalf("|%d%d⟩_L changed under CZ_L beyond a phase", cse.a, cse.b)
		}
		wantPh := complex(1, 0)
		if cse.a == 1 && cse.b == 1 {
			wantPh = -1
		}
		if cmplx.Abs(ph-wantPh) > 1e-9 {
			t.Errorf("CZ_L phase on |%d%d⟩_L = %v, want %v", cse.a, cse.b, ph, wantPh)
		}
	}
}

// TestOddBellState reproduces the thesis Fig 5.6/5.7 workload: the odd
// Bell state (|01⟩_L+|10⟩_L)/√2 yields perfectly anti-correlated logical
// measurements, and H_L on the control exercises the rotated CNOT_L
// pairing.
func TestOddBellState(t *testing.T) {
	counts := map[[2]int]int{}
	const iters = 12
	for i := 0; i < iters; i++ {
		l, _ := newQxStack(t, 2, AncillaSharedSingle, int64(800+i))
		c := circuit.New().
			Add(gates.Prep, 0).Add(gates.Prep, 1).
			Add(gates.H, 0).
			Add(gates.CNOT, 0, 1).
			Add(gates.X, 0).
			Add(gates.Measure, 0).Add(gates.Measure, 1)
		res, err := qpdo.Run(l, c)
		if err != nil {
			t.Fatal(err)
		}
		m := [2]int{res.Last(0), res.Last(1)}
		counts[m]++
		if m[0] == m[1] {
			t.Fatalf("iteration %d: odd Bell state gave correlated outcome %v", i, m)
		}
	}
	if counts[[2]int{0, 1}]+counts[[2]int{1, 0}] != iters {
		t.Errorf("outcome histogram: %v", counts)
	}
}

// TestStabilizersAfterInit verifies thesis Tables 2.1/2.2 on the CHP
// back-end: after initialization every stabilizer generator and the
// logical-state stabilizer Z0Z4Z8 have expectation +1.
func TestStabilizersAfterInit(t *testing.T) {
	l, ch := newChpStack(t, 1, 900)
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0)); err != nil {
		t.Fatal(err)
	}
	star := l.Star(0)
	toPhys := func(sup []int) []int {
		out := make([]int, len(sup))
		for i, d := range sup {
			out[i] = star.Data[d]
		}
		return out
	}
	for _, sup := range XSupports(RotNormal) {
		v, det := ch.Tableau().ExpectPauli(pauli.XString(toPhys(sup)...))
		if !det || v != 1 {
			t.Errorf("X stabilizer %v: v=%d det=%v", sup, v, det)
		}
	}
	for _, sup := range ZSupports(RotNormal) {
		v, det := ch.Tableau().ExpectPauli(pauli.ZString(toPhys(sup)...))
		if !det || v != 1 {
			t.Errorf("Z stabilizer %v: v=%d det=%v", sup, v, det)
		}
	}
	v, det := ch.Tableau().ExpectPauli(pauli.ZString(toPhys([]int{0, 4, 8})...))
	if !det || v != 1 {
		t.Errorf("Z0Z4Z8 on |0⟩_L: v=%d det=%v (thesis Table 2.2)", v, det)
	}
}

// TestWindowNoErrors: with a noiseless substrate a QEC window issues no
// corrections and the probes stay +1.
func TestWindowNoErrors(t *testing.T) {
	l, _ := newChpStack(t, 1, 1000)
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0)); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 5; w++ {
		stats, err := l.RunWindow(0)
		if err != nil {
			t.Fatal(err)
		}
		if stats.CorrectionGates != 0 {
			t.Errorf("window %d issued %d corrections on a clean state", w, stats.CorrectionGates)
		}
	}
	out, err := l.ProbeZL(0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 0 {
		t.Error("Z_L probe flipped without errors")
	}
}

// TestWindowCorrectsInjectedErrors injects single data-qubit errors
// directly into the tableau and checks that windows detect and correct
// them without flipping the logical state.
func TestWindowCorrectsInjectedErrors(t *testing.T) {
	for d := 0; d < NumData; d++ {
		for _, kind := range []string{"X", "Z"} {
			l, ch := newChpStack(t, 1, int64(1100+d))
			if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0)); err != nil {
				t.Fatal(err)
			}
			phys := l.Star(0).Data[d]
			if kind == "X" {
				ch.Tableau().X(phys)
			} else {
				ch.Tableau().Z(phys)
			}
			// Two windows guarantee the persistent-flip rule fires.
			total := 0
			for w := 0; w < 2; w++ {
				stats, err := l.RunWindow(0)
				if err != nil {
					t.Fatal(err)
				}
				total += stats.CorrectionGates
			}
			if total == 0 {
				t.Errorf("%s error on D%d never corrected", kind, d)
			}
			// All stabilizers restored.
			r, err := l.RunESMRound(0)
			if err != nil {
				t.Fatal(err)
			}
			if r.A != 0 || r.B != 0 {
				t.Errorf("%s on D%d: residual syndrome A=%v B=%v", kind, d, r.A, r.B)
			}
			// No logical flip for a single physical error.
			if out, err := l.ProbeZL(0); err != nil || out != 0 {
				t.Errorf("%s on D%d: logical state flipped (out=%d err=%v)", kind, d, out, err)
			}
		}
	}
}

// TestSharedAndDedicatedAgree runs initialization on both ancilla modes
// and checks both yield a clean |0⟩_L (all probes and syndromes trivial).
func TestSharedAndDedicatedAgree(t *testing.T) {
	for _, mode := range []AncillaMode{AncillaDedicated, AncillaSharedSingle} {
		l, _ := newQxStack(t, 1, mode, 1200)
		res, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0).Add(gates.Measure, 0))
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.Last(0) != 0 {
			t.Errorf("mode %d: |0⟩_L measured %d", mode, res.Last(0))
		}
	}
}

// TestRejectsUnsupportedLogicalGates: SC17 has no transversal T.
func TestRejectsUnsupportedLogicalGates(t *testing.T) {
	l, _ := newChpStack(t, 1, 1300)
	if err := l.Add(circuit.New().Add(gates.T, 0)); err == nil {
		t.Error("logical T should be rejected")
	}
	if err := l.RemoveQubits(1); err == nil {
		t.Error("logical qubit removal should be rejected")
	}
}

// TestRotatedESMCleanAfterH: after H_L the rotated ESM must report
// trivial syndromes on the (errorless) rotated state.
func TestRotatedESMCleanAfterH(t *testing.T) {
	l, _ := newChpStack(t, 1, 1400)
	if _, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0).Add(gates.H, 0)); err != nil {
		t.Fatal(err)
	}
	r, err := l.RunESMRound(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.A != 0 || r.B != 0 {
		t.Errorf("rotated ESM syndromes A=%v B=%v, want clean", r.A, r.B)
	}
	// Windows keep working across the rotation.
	stats, err := l.RunWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CorrectionGates != 0 {
		t.Errorf("rotated window issued %d corrections", stats.CorrectionGates)
	}
}

// TestYLogical applies Y_L = X_L·Z_L and checks the measurement flip.
func TestYLogical(t *testing.T) {
	l, _ := newQxStack(t, 1, AncillaDedicated, 1500)
	res, err := qpdo.Run(l, circuit.New().Add(gates.Prep, 0).Add(gates.Y, 0).Add(gates.Measure, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Last(0) != 1 {
		t.Errorf("Y_L|0⟩_L measured %d, want 1", res.Last(0))
	}
}

func TestMathSanity(t *testing.T) {
	// The 16 codewords of each parity class are disjoint and cover 32
	// strings total.
	even, odd := codewordSupport(false), codewordSupport(true)
	if len(even) != 16 || len(odd) != 16 {
		t.Fatalf("codeword counts: %d even, %d odd", len(even), len(odd))
	}
	for b := range even {
		if odd[b] {
			t.Fatalf("codeword %09b in both classes", b)
		}
	}
	_ = math.Pi
}
