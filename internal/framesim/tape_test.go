package framesim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

func TestCompileEmptyAndNil(t *testing.T) {
	if _, err := Compile(nil, 5); err == nil {
		t.Fatal("nil circuit compiled")
	}
	if _, err := Compile(circuit.New(), 0); err == nil {
		t.Fatal("zero-width tape compiled")
	}
	tp, err := Compile(circuit.New(), 3)
	if err != nil {
		t.Fatalf("empty circuit: %v", err)
	}
	if tp.NumOps() != 0 || tp.NumMeas() != 0 {
		t.Fatalf("empty circuit compiled to %d ops, %d meas", tp.NumOps(), tp.NumMeas())
	}
}

func TestCompileRejectsMalformed(t *testing.T) {
	cases := map[string]*circuit.Circuit{
		"qubit out of range": circuit.New().Add(gates.H, 7),
		"negative qubit":     {Slots: []circuit.TimeSlot{{Ops: []circuit.Operation{{Gate: gates.H, Qubits: []int{-1}}}}}},
		"slot collision": {Slots: []circuit.TimeSlot{{Ops: []circuit.Operation{
			{Gate: gates.H, Qubits: []int{0}},
			{Gate: gates.X, Qubits: []int{0}},
		}}}},
		"arity mismatch":    {Slots: []circuit.TimeSlot{{Ops: []circuit.Operation{{Gate: gates.CNOT, Qubits: []int{0}}}}}},
		"nil gate":          {Slots: []circuit.TimeSlot{{Ops: []circuit.Operation{{Qubits: []int{0}}}}}},
		"non-Clifford gate": circuit.New().Add(gates.T, 0),
	}
	for name, c := range cases {
		if _, err := Compile(c, 3); err == nil {
			t.Errorf("%s: compiled without error", name)
		}
	}
}

// TestCompileSiteLayout checks the error-site emission against the
// ErrorLayer contract on a hand-built circuit: measurement sites precede
// the measurement, gate and pair sites follow their op, and idles fill
// the remaining qubits in ascending order.
func TestCompileSiteLayout(t *testing.T) {
	c := circuit.New()
	s0 := c.AppendSlot()
	c.AddToSlot(s0, gates.CNOT, 0, 1)
	c.AddToSlot(s0, gates.Measure, 2)
	c.Add(gates.H, 3)
	tp, err := Compile(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Site{
		{Slot: 0, Kind: KindPair, A: 0, B: 1},
		{Slot: 0, Kind: KindMeas, A: 2, B: -1},
		{Slot: 0, Kind: KindSingle, A: 3, B: -1}, // idle
		{Slot: 1, Kind: KindSingle, A: 3, B: -1}, // H operand
		{Slot: 1, Kind: KindSingle, A: 0, B: -1}, // idles ascending
		{Slot: 1, Kind: KindSingle, A: 1, B: -1},
		{Slot: 1, Kind: KindSingle, A: 2, B: -1},
	}
	got := tp.Sites()
	if len(got) != len(want) {
		t.Fatalf("got %d sites %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("site %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if tp.NumMeas() != 1 || tp.MeasQubit(0) != 2 {
		t.Fatalf("measurement sites: %d (q %d)", tp.NumMeas(), tp.MeasQubit(0))
	}
}

// fuzzCircuit encodes ops for FuzzCompile's seed corpus: gate is an
// index into the target's gate pool, and an op shares the previous op's
// time slot when same is set.
func fuzzCircuit(ops ...[4]int) []byte {
	var data []byte
	for _, op := range ops {
		data = append(data, byte(op[0]<<1|op[3]), byte(op[1]), byte(op[2]))
	}
	return data
}

// Gate pool indices of FuzzCompile's seed corpus.
const (
	fzX, fzY, fzH, fzS, fzSdg          = 1, 2, 4, 5, 6
	fzCNOT, fzCZ, fzSWAP, fzPrep, fzMZ = 8, 9, 10, 11, 12
)

// FuzzCompile feeds arbitrary (including malformed) circuits to the
// compiler; any input must produce a tape or an error, never a panic. A
// tape that compiles must replay without panicking and compile to a
// round map that agrees with executing the tape (checkRoundMap). The seeds include syndrome-style
// circuits wider than 64 qubits, where the map's source sets and effect
// targets span several words.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{0, 0, 1, 1, 2, 3, 9, 0, 1, 13, 4, 4}, uint8(5))
	f.Add([]byte{255, 255, 255, 10, 0, 0}, uint8(1))
	f.Add(fuzzCircuit(
		[4]int{fzPrep, 4, 0, 0}, [4]int{fzH, 4, 0, 0},
		[4]int{fzCNOT, 4, 0, 0}, [4]int{fzCNOT, 4, 1, 0}, [4]int{fzCZ, 2, 3, 1},
		[4]int{fzH, 4, 0, 0}, [4]int{fzS, 2, 0, 1},
		[4]int{fzMZ, 4, 0, 0}, [4]int{fzSWAP, 0, 1, 1},
		[4]int{fzMZ, 2, 0, 0}, [4]int{fzH, 3, 0, 1},
		[4]int{fzPrep, 2, 0, 0}, [4]int{fzCNOT, 3, 0, 1},
		[4]int{fzMZ, 3, 0, 0}, [4]int{fzSdg, 1, 0, 1}, [4]int{fzY, 2, 0, 1},
		[4]int{fzCNOT, 1, 2, 0}, [4]int{fzX, 0, 0, 1},
	), uint8(5))
	f.Add(fuzzCircuit(
		[4]int{fzPrep, 90, 0, 0}, [4]int{fzH, 90, 0, 0},
		[4]int{fzCNOT, 90, 10, 0}, [4]int{fzSWAP, 64, 63, 1},
		[4]int{fzCNOT, 90, 70, 0}, [4]int{fzCZ, 65, 2, 1},
		[4]int{fzCNOT, 70, 99, 0}, [4]int{fzH, 90, 0, 0},
		[4]int{fzMZ, 90, 0, 0}, [4]int{fzMZ, 99, 0, 1},
		[4]int{fzPrep, 64, 0, 0}, [4]int{fzS, 65, 0, 1},
		[4]int{fzMZ, 70, 0, 0}, [4]int{fzCNOT, 65, 64, 1},
		[4]int{fzMZ, 64, 0, 0},
	), uint8(100))
	f.Add(fuzzCircuit(
		[4]int{fzCNOT, 127, 0, 0}, [4]int{fzH, 127, 0, 0},
		[4]int{fzCNOT, 127, 64, 0}, [4]int{fzCZ, 100, 120, 1},
		[4]int{fzMZ, 127, 0, 0}, [4]int{fzSWAP, 120, 3, 1},
		[4]int{fzMZ, 64, 0, 0}, [4]int{fzMZ, 3, 0, 1},
		[4]int{fzPrep, 100, 0, 0}, [4]int{fzH, 127, 0, 1},
	), uint8(200))
	pool := []*gates.Gate{
		gates.I, gates.X, gates.Y, gates.Z, gates.H, gates.S, gates.Sdg,
		gates.T, gates.CNOT, gates.CZ, gates.SWAP, gates.Prep, gates.Measure,
		nil,
	}
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		c := circuit.New()
		slot := -1
		for i := 0; i+2 < len(data); i += 3 {
			if slot < 0 || data[i]&1 == 0 {
				slot = c.AppendSlot()
			}
			g := pool[int(data[i]>>1)%len(pool)]
			op := circuit.Operation{Gate: g, Qubits: []int{int(int8(data[i+1]))}}
			if g != nil && g.Arity == 2 {
				op.Qubits = append(op.Qubits, int(int8(data[i+2])))
			}
			c.Slots[slot].Ops = append(c.Slots[slot].Ops, op)
		}
		tape, err := Compile(c, int(width))
		if err != nil {
			return
		}
		checkRoundMap(t, tape, data)
	})
}

// maxMapCheckOps bounds the tapes checkRoundMap compares: compiling the
// effects costs one pass over the tape per 64 unit Paulis, quadratic in
// the tape length. Longer tapes are only replayed.
const maxMapCheckOps = 4096

// checkRoundMap runs tape twice on the same frame and script, once op by
// op (tapeExec.runTape) and once through its round map
// (Sparse.runTape), and requires identical planes, outcome words and
// injection counts. It tries three scripts: an X at every site operand,
// a Z at every site operand (so a missing or extra effect target shows
// whatever the fuzz draws), and a random Pauli pair at about half the
// sites. Each runs from a random frame and from the zero frame, so both
// the map and its zero-frame skip are checked. The reference outcomes
// and all random draws come from a generator seeded by data.
func checkRoundMap(t *testing.T, tape *Tape, data []byte) {
	t.Helper()
	if tape.NumOps() > maxMapCheckOps {
		st := &runState{b: NewBatch(tape.NumQubits()), w: 1, script: Script{}}
		out := make([]uint64, tape.NumMeas())
		(&tapeExec{n: tape.NumQubits()}).runTape(st, tape, make([]uint64, tape.NumMeas()), true, out)
		return
	}
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	n, nm := tape.NumQubits(), tape.NumMeas()
	ref := make([]uint64, nm)
	for i := range ref {
		ref[i] = -uint64(rng.Intn(2))
	}
	paulis := []PauliErr{ErrNone, ErrX, ErrY, ErrZ}
	scripts := []Script{{}, {}, {}}
	for _, site := range tape.Sites() {
		scripts[0][site] = [2]PauliErr{ErrX, ErrX}
		scripts[1][site] = [2]PauliErr{ErrZ, ErrZ}
		if rng.Intn(2) == 0 {
			scripts[2][site] = [2]PauliErr{paulis[rng.Intn(4)], paulis[rng.Intn(4)]}
		}
	}
	ti := indexTape(tape, false)
	for k, script := range scripts {
		for _, zero := range []bool{false, true} {
			want := &runState{b: NewBatch(n), w: 1, script: script, inj: make([]int, 64)}
			got := &runState{b: NewBatch(n), w: 1, script: script, inj: make([]int, 64), terms: make([]uint64, nm+2*n+1)}
			for q := 0; q < n && !zero; q++ {
				want.b.fx[q], want.b.fz[q] = rng.Uint64(), rng.Uint64()
			}
			copy(got.b.fx, want.b.fx)
			copy(got.b.fz, want.b.fz)
			outW, outG := make([]uint64, nm), make([]uint64, nm)
			(&tapeExec{n: n}).runTape(want, tape, ref, true, outW)
			(&Sparse{}).runTape(got, ti, ref, true, outG)
			label := fmt.Sprintf("script %d, zero frame %v", k, zero)
			requireEqualPlanes(t, label, 0, want.b, got.b)
			if !equalWords(outW, outG) {
				t.Fatalf("%s: outcome words diverge: tape %#x, round map %#x", label, outW, outG)
			}
			if want.inj[0] != got.inj[0] {
				t.Fatalf("%s: %d injections counted, want %d", label, got.inj[0], want.inj[0])
			}
		}
	}
}
