package chp

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/pauli"
)

// Opcodes of a FuzzTableauDifferential program. Each operation is three
// bytes: opcode, qubit a and qubit b, both taken mod n (b moves off a
// for the two-qubit gates).
const (
	opH = iota
	opS
	opSdg
	opX
	opY
	opZ
	opCNOT
	opCZ
	opSWAP
	opMeasure
	opReset
	opExpect // ExpectPauli of a random Pauli string
	numOps
)

// maxProgramOps caps a program, so a long fuzz input stays a fast run.
const maxProgramOps = 300

type program struct {
	n    uint8 // the qubit count is 1 + n mod 70
	seed int64 // seeds both kernels' measurement RNGs and the Pauli strings
	ops  []byte
}

type progOp struct{ op, a, b byte }

func encode(ops ...progOp) []byte {
	out := make([]byte, 0, 3*len(ops))
	for _, o := range ops {
		out = append(out, o.op, o.a, o.b)
	}
	return out
}

// selectionShapes counts the deterministic measurements of a run by the
// stabilizer rows they select: exactly one, several, several lying in
// more than one row word, and several whose product picks up a phase on
// some column (a column term of productSignExponent is nonzero, so
// skipping that column would change the outcome).
type selectionShapes struct{ one, several, multiWord, phase int }

// note classifies a measurement of qubit q about to run on tab.
func (s *selectionShapes) note(tab *Tableau, q int) {
	n, x := tab.n, tab.xcol(q)
	var sel []int
	for w := range x {
		if x[w]&tab.stabMask[w] != 0 {
			return // random branch
		}
		for d := x[w] & tab.destabMask[w]; d != 0; d &= d - 1 {
			sel = append(sel, n+w<<6+bits.TrailingZeros64(d))
		}
	}
	if len(sel) == 1 {
		s.one++
		return
	}
	s.several++
	if sel[0]>>6 != sel[len(sel)-1]>>6 {
		s.multiWord++
	}
	for c := 0; c < n; c++ {
		// The column's term, summed row by row in product order.
		e, zs, xs := 0, 0, 0
		for _, r := range sel {
			xr, zr := b2i(planeBit(tab.xcol(c), r)), b2i(planeBit(tab.zcol(c), r))
			e += xr*zr + 2*zs*xr
			xs += xr
			zs += zr
		}
		if (e+3*(xs&1)*(zs&1))&3 != 0 {
			s.phase++
			return
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (s *selectionShapes) add(o selectionShapes) {
	s.one += o.one
	s.several += o.several
	s.multiWord += o.multiWord
	s.phase += o.phase
}

// runDifferential drives a Tableau and a Reference through one program
// with identically seeded RNGs, failing on the first disagreement in an
// outcome, a determinism flag or an ExpectPauli value, and on differing
// canonical or raw stabilizer sets at the end.
func runDifferential(t *testing.T, p program) selectionShapes {
	t.Helper()
	n := 1 + int(p.n)%70
	tab := New(n, rand.New(rand.NewSource(p.seed)))
	ref := NewReference(n, rand.New(rand.NewSource(p.seed)))
	drv := rand.New(rand.NewSource(^p.seed))
	var shapes selectionShapes
	ops := p.ops
	if len(ops) > 3*maxProgramOps {
		ops = ops[:3*maxProgramOps]
	}
	for i := 0; i+3 <= len(ops); i += 3 {
		op, a, b := int(ops[i])%numOps, int(ops[i+1])%n, int(ops[i+2])%n
		if b == a {
			b = (a + 1) % n
		}
		if n == 1 && (op == opCNOT || op == opCZ || op == opSWAP) {
			continue
		}
		switch op {
		case opH:
			tab.H(a)
			ref.H(a)
		case opS:
			tab.S(a)
			ref.S(a)
		case opSdg:
			tab.Sdg(a)
			ref.Sdg(a)
		case opX:
			tab.X(a)
			ref.X(a)
		case opY:
			tab.Y(a)
			ref.Y(a)
		case opZ:
			tab.Z(a)
			ref.Z(a)
		case opCNOT:
			tab.CNOT(a, b)
			ref.CNOT(a, b)
		case opCZ:
			tab.CZ(a, b)
			ref.CZ(a, b)
		case opSWAP:
			tab.SWAP(a, b)
			ref.SWAP(a, b)
		case opMeasure:
			shapes.note(tab, a)
			got, gdet := tab.Measure(a)
			want, wdet := ref.Measure(a)
			if got != want || gdet != wdet {
				t.Fatalf("n=%d op %d: Measure(%d) tableau=(%d,%v) reference=(%d,%v)",
					n, i/3, a, got, gdet, want, wdet)
			}
		case opReset:
			shapes.note(tab, a)
			tab.Reset(a)
			ref.Reset(a)
		case opExpect:
			ps := randomPauliString(drv, n)
			got, gdet := tab.ExpectPauli(ps)
			want, wdet := ref.ExpectPauli(ps)
			if got != want || gdet != wdet {
				t.Fatalf("n=%d op %d: ExpectPauli(%s) tableau=(%d,%v) reference=(%d,%v)",
					n, i/3, ps, got, gdet, want, wdet)
			}
		}
	}
	if ct, cr := canonString(tab.canonicalRows(), n), canonString(ref.canonicalRows(), n); ct != cr {
		t.Fatalf("n=%d: canonical stabilizers diverged\ntableau:\n%s\nreference:\n%s", n, ct, cr)
	}
	st, sr := tab.Stabilizers(), ref.Stabilizers()
	for i := range st {
		if st[i].String() != sr[i].String() {
			t.Fatalf("n=%d: stabilizer %d: tableau %s, reference %s", n, i, st[i], sr[i])
		}
		// Every generator, and a product of two, is a +1 stabilizer.
		for _, ps := range []pauli.PauliString{st[i], st[i].Mul(st[(i+1)%n])} {
			got, gdet := tab.ExpectPauli(ps)
			want, wdet := ref.ExpectPauli(ps)
			if got != want || gdet != wdet || (len(ps.Ops) > 0 && (!gdet || got != 1)) {
				t.Fatalf("n=%d: ExpectPauli(%s) tableau=(%d,%v) reference=(%d,%v)",
					n, ps, got, gdet, want, wdet)
			}
		}
	}
	return shapes
}

// tableauCorpus is FuzzTableauDifferential's seed corpus: scripted
// deterministic measurements that select one row, several rows, rows in
// different words and rows whose product picks up column phases, then
// random programs on both sides of the 64-row word boundary (2n+1 > 64
// from n = 32 on).
func tableauCorpus() []program {
	progs := []program{
		// |000⟩ and X₁: every qubit's Z row is selected alone.
		{n: 2, seed: 1, ops: encode(
			progOp{opMeasure, 0, 0}, progOp{opX, 1, 0}, progOp{opMeasure, 1, 0},
			progOp{opReset, 1, 0}, progOp{opMeasure, 1, 0})},
		// GHZ on qubits 0–2 with X₂, parity ancilla 3: measuring it
		// multiplies Z₁Z₂Z₃, Z₀Z₁ and −Z₀Z₂ (outcome 1).
		{n: 5, seed: 2, ops: encode(
			progOp{opH, 0, 0}, progOp{opCNOT, 0, 1}, progOp{opCNOT, 0, 2}, progOp{opX, 2, 0},
			progOp{opCNOT, 1, 3}, progOp{opCNOT, 2, 3}, progOp{opMeasure, 3, 0},
			progOp{opReset, 3, 0}, progOp{opMeasure, 3, 0})},
		// n = 40 (81 rows, two words): Bell pair on qubits 2 and 30,
		// parity ancilla 35. Its readout multiplies row 42 (Z₂Z₃₀, word
		// 0) and row 75 (Z₂Z₃₀Z₃₅, word 1).
		{n: 39, seed: 3, ops: encode(
			progOp{opH, 30, 0}, progOp{opCNOT, 30, 2}, progOp{opX, 30, 0},
			progOp{opCNOT, 2, 35}, progOp{opCNOT, 30, 35}, progOp{opMeasure, 35, 0},
			progOp{opH, 35, 0}, progOp{opMeasure, 35, 0}, progOp{opMeasure, 35, 0})},
		// n = 70 (141 rows, three words): the same across words 1 and 2,
		// rows 71 (Z₁Z₆₆) and 130 (Z₁Z₆₆Z₆₀).
		{n: 69, seed: 4, ops: encode(
			progOp{opH, 66, 0}, progOp{opCNOT, 66, 1}, progOp{opS, 66, 0}, progOp{opSdg, 66, 0},
			progOp{opCNOT, 1, 60}, progOp{opCNOT, 66, 60}, progOp{opMeasure, 60, 0},
			progOp{opCZ, 60, 3}, progOp{opMeasure, 60, 0}, progOp{opReset, 60, 0})},
		// Bell pair on qubits 0 and 2, ancilla 1 reads Y₀Y₂ = −1 through
		// controlled-Y gates (S·CNOT·S†): the rows it then selects carry
		// X·Z and Z·X on the two end columns, whose phases cancel.
		{n: 2, seed: 5, ops: encode(
			progOp{opH, 0, 0}, progOp{opCNOT, 0, 2}, progOp{opH, 1, 0},
			progOp{opSdg, 0, 0}, progOp{opCNOT, 1, 0}, progOp{opS, 0, 0},
			progOp{opSdg, 2, 0}, progOp{opCNOT, 1, 2}, progOp{opS, 2, 0},
			progOp{opH, 1, 0}, progOp{opMeasure, 1, 0}, progOp{opMeasure, 1, 0})},
		// The same on n = 40 between qubits 0 and 39 (rows in both words).
		{n: 39, seed: 6, ops: encode(
			progOp{opH, 0, 0}, progOp{opCNOT, 0, 39}, progOp{opH, 20, 0},
			progOp{opSdg, 0, 0}, progOp{opCNOT, 20, 0}, progOp{opS, 0, 0},
			progOp{opSdg, 39, 0}, progOp{opCNOT, 20, 39}, progOp{opS, 39, 0},
			progOp{opH, 20, 0}, progOp{opMeasure, 20, 0}, progOp{opReset, 20, 0})},
	}
	for i, n := range []uint8{0, 1, 4, 16, 30, 31, 32, 48, 63, 69} {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		ops := make([]byte, 3*200)
		for j := range ops {
			ops[j] = byte(rng.Intn(256))
		}
		// Half the programs favour measurements and resets, which
		// makes the deterministic branch common.
		if i%2 == 0 {
			for j := 0; j < len(ops); j += 6 {
				ops[j] = byte(opMeasure + rng.Intn(2))
			}
		}
		progs = append(progs, program{n: n, seed: int64(7 * (i + 1)), ops: ops})
	}
	return progs
}

// FuzzTableauDifferential runs random programs of every gate, Measure,
// Reset and ExpectPauli through the column-major Tableau and the
// row-major Reference with identically seeded RNGs: outcomes,
// determinism flags, ExpectPauli values and final stabilizer sets must
// agree. The qubit count runs from 1 to 70, across the 64-row word
// boundary at n = 32.
func FuzzTableauDifferential(f *testing.F) {
	for _, p := range tableauCorpus() {
		f.Add(p.n, p.seed, p.ops)
	}
	f.Fuzz(func(t *testing.T, n uint8, seed int64, ops []byte) {
		runDifferential(t, program{n: n, seed: seed, ops: ops})
	})
}

// TestTableauCorpusCoversSelections pins what the seed corpus exercises:
// deterministic measurements that select one row, several rows, rows in
// different words, and rows whose product has nontrivial phase terms.
func TestTableauCorpusCoversSelections(t *testing.T) {
	var all selectionShapes
	for _, p := range tableauCorpus() {
		all.add(runDifferential(t, p))
	}
	t.Logf("deterministic measurements: %+v", all)
	if all.one == 0 || all.several == 0 || all.multiWord == 0 || all.phase == 0 {
		t.Fatalf("seed corpus misses a selection shape: %+v", all)
	}
}
