package framesim

import "repro/internal/pauli"

// Batch is a bit-sliced Pauli error frame for up to 64·W Monte-Carlo
// shots: for every qubit W uint64 words hold the X components of all
// shots (word k bit j = shot 64k+j) and W words the Z components. This
// is the same object as core.Frame — a sign-free F₂ symplectic Pauli
// frame — but sliced across shots instead of qubits, so one Clifford
// conjugation rule of thesis Tables 3.4–3.5 updates 64·W independent
// trajectories with a handful of word operations.
//
// The layout is [qubit][shot-word]: the W words of one qubit's plane are
// adjacent, which is what the gate kernels touch (a gate reads/writes
// the planes of its one or two operand qubits across all shots, a tight
// W-long loop the compiler unrolls for the supported widths), while the
// per-shot view (column j of all planes) is only materialized
// shot-by-shot when a decoded syndrome needs a scalar LUT lookup.
type Batch struct {
	n, w   int
	fx, fz []uint64
}

// NewBatch creates an identity frame batch for n qubits with one
// 64-shot word per plane (the width-1 layout of the scalar contract).
func NewBatch(n int) *Batch { return NewBatchWide(n, 1) }

// NewBatchWide creates an identity frame batch for n qubits with w
// 64-shot words per plane (64·w shots per propagate pass).
func NewBatchWide(n, w int) *Batch {
	if w < 1 {
		w = 1
	}
	return &Batch{n: n, w: w, fx: make([]uint64, n*w), fz: make([]uint64, n*w)}
}

// NumQubits returns the number of qubits.
func (b *Batch) NumQubits() int { return b.n }

// Width returns the number of 64-shot words per plane.
func (b *Batch) Width() int { return b.w }

// Reset clears every frame to the identity.
//
//qa:hotpath
func (b *Batch) Reset() {
	for i := range b.fx {
		b.fx[i] = 0
		b.fz[i] = 0
	}
}

// The conjugation kernels below mirror core.Frame bit for bit
// (TestBatchMatchesFrame drives the two against each other
// record-by-record).
// Pauli gates are absent by design: a Pauli applied physically in both
// the reference and the shots commutes through the frame unchanged, and
// Pauli *errors* enter via XorX/XorZ.

// H conjugates the frames of qubit q by a Hadamard: X ↔ Z.
//
//qa:hotpath
func (b *Batch) H(q int) {
	o := q * b.w
	x := b.fx[o : o+b.w]
	z := b.fz[o : o+b.w]
	for k := range x {
		x[k], z[k] = z[k], x[k]
	}
}

// S conjugates by the phase gate: X → Y (Z ^= X), Z fixed. S† acts
// identically on the sign-free frame.
//
//qa:hotpath
func (b *Batch) S(q int) {
	o := q * b.w
	x := b.fx[o : o+b.w]
	z := b.fz[o : o+b.w]
	for k := range x {
		z[k] ^= x[k]
	}
}

// CNOT conjugates by a controlled-NOT: X copies control→target, Z copies
// target→control.
//
//qa:hotpath
func (b *Batch) CNOT(c, t int) {
	oc, ot := c*b.w, t*b.w
	cx := b.fx[oc : oc+b.w]
	cz := b.fz[oc : oc+b.w]
	tx := b.fx[ot : ot+b.w]
	tz := b.fz[ot : ot+b.w]
	for k := range cx {
		tx[k] ^= cx[k]
		cz[k] ^= tz[k]
	}
}

// CZ conjugates by a controlled-Z: an X on either operand toggles Z on
// the other.
//
//qa:hotpath
func (b *Batch) CZ(p, q int) {
	op, oq := p*b.w, q*b.w
	px := b.fx[op : op+b.w]
	pz := b.fz[op : op+b.w]
	qx := b.fx[oq : oq+b.w]
	qz := b.fz[oq : oq+b.w]
	for k := range px {
		qz[k] ^= px[k]
		pz[k] ^= qx[k]
	}
}

// SWAP exchanges the frames of the two operands.
//
//qa:hotpath
func (b *Batch) SWAP(p, q int) {
	op, oq := p*b.w, q*b.w
	px := b.fx[op : op+b.w]
	pz := b.fz[op : op+b.w]
	qx := b.fx[oq : oq+b.w]
	qz := b.fz[oq : oq+b.w]
	for k := range px {
		px[k], qx[k] = qx[k], px[k]
		pz[k], qz[k] = qz[k], pz[k]
	}
}

// XorX injects an X error into qubit q for the word-0 shots selected by
// mask (the width-1 view; wide callers use XorXAt).
//
//qa:hotpath
func (b *Batch) XorX(q int, mask uint64) { b.fx[q*b.w] ^= mask }

// XorZ injects a Z error into qubit q for the word-0 shots selected by
// mask (the width-1 view; wide callers use XorZAt).
//
//qa:hotpath
func (b *Batch) XorZ(q int, mask uint64) { b.fz[q*b.w] ^= mask }

// XorXAt injects an X error into qubit q for the shots of word k
// selected by mask.
//
//qa:hotpath
func (b *Batch) XorXAt(q, k int, mask uint64) { b.fx[q*b.w+k] ^= mask }

// XorZAt injects a Z error into qubit q for the shots of word k
// selected by mask.
//
//qa:hotpath
func (b *Batch) XorZAt(q, k int, mask uint64) { b.fz[q*b.w+k] ^= mask }

// X returns the word-0 X bit-plane of qubit q.
//
//qa:hotpath
func (b *Batch) X(q int) uint64 { return b.fx[q*b.w] }

// Z returns the word-0 Z bit-plane of qubit q.
//
//qa:hotpath
func (b *Batch) Z(q int) uint64 { return b.fz[q*b.w] }

// XAt returns word k of the X bit-plane of qubit q.
//
//qa:hotpath
func (b *Batch) XAt(q, k int) uint64 { return b.fx[q*b.w+k] }

// ZAt returns word k of the Z bit-plane of qubit q.
//
//qa:hotpath
func (b *Batch) ZAt(q, k int) uint64 { return b.fz[q*b.w+k] }

// ClearQubit zeroes both planes of qubit q (reset of a physical qubit
// destroys any pending error on it).
//
//qa:hotpath
func (b *Batch) ClearQubit(q int) {
	o := q * b.w
	for k := 0; k < b.w; k++ {
		b.fx[o+k] = 0
		b.fz[o+k] = 0
	}
}

// Record extracts the Pauli record of qubit q in shot lane j (a global
// lane index, 0..64·W-1: word j/64, bit j%64), for comparison against
// core.Frame in TestBatchMatchesFrame and TestSparseScriptedMatchesCoreFrame.
func (b *Batch) Record(q, j int) pauli.Record {
	o := q*b.w + j>>6
	bit := uint64(1) << uint(j&63)
	return pauli.Record{X: b.fx[o]&bit != 0, Z: b.fz[o]&bit != 0}
}
