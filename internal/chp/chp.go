// Package chp implements an Aaronson–Gottesman stabilizer-tableau
// simulator, the in-process substitute for the CHP back-end of the thesis
// (§4.1.2). It simulates Clifford circuits (H, S, CNOT and the gates
// derived from them) on hundreds of qubits in polynomial time, with
// projective computational-basis measurement, reset, stabilizer
// extraction and canonical-form state comparison.
//
// The tableau holds n destabilizer rows followed by n stabilizer rows,
// each row a Pauli operator with a sign bit, as in Aaronson & Gottesman,
// "Improved simulation of stabilizer circuits" (2004) — but stored
// column-major (transposed): for every qubit the X and Z bits of all
// 2n+1 rows are packed into []uint64 column words, and the sign bits of
// all rows form one more bit-plane. A single-qubit Clifford gate touches
// one column, so it collapses to a handful of word-wide boolean
// operations over ceil((2n+1)/64) words instead of a loop over 2n rows;
// for the 17-qubit ninja star (35 rows) every gate is a few single-word
// operations. Measurement uses the same word-parallelism across rows: all
// rows absorbing the pivot are multiplied simultaneously with a
// bit-sliced mod-4 phase accumulator. A deterministic outcome is the
// sign of the product of the stabilizer rows the measured qubit selects:
// the sign bit itself when it selects one row, as most stabilizer-code
// ancilla readouts do, and otherwise popcounts and a carry-less
// prefix-parity product over only the column words the selected rows
// touch. The row-major layout survives as the test-only Reference
// implementation (reference.go), which the differential fuzz tests drive
// in lockstep with this one.
package chp

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/pauli"
)

// Tableau is the stabilizer state of n qubits, initially |0...0⟩.
type Tableau struct {
	n        int
	rowWords int // words per column bit-plane: ceil((2n+1)/64)
	qWords   int // words per qubit-major packed row: ceil(n/64)
	// xz holds 2n bit-planes of rowWords words each: plane 2q is the
	// X column of qubit q (bit i = X component of row i), plane 2q+1
	// its Z column. Rows 0..n-1 are destabilizers, n..2n-1 stabilizers,
	// row 2n is scratch.
	xz []uint64
	// sign is the bit-plane of row signs: bit i set → row i carries −1.
	sign []uint64
	// stabMask/destabMask select the stabilizer (n..2n-1) and
	// destabilizer (0..n-1) row ranges of a bit-plane.
	stabMask, destabMask []uint64
	rng                  *rand.Rand
	// Preallocated measurement scratch planes (no per-measure allocs):
	// m marks absorbing rows, ms selected stabilizer rows, s0/s1 are the
	// low/high bits of the bit-sliced mod-4 phase accumulator.
	m, ms, s0, s1 []uint64
	dense         pauli.Dense // reusable row-extraction buffer
}

// New creates the all-zeros stabilizer state of n qubits. The RNG drives
// the outcomes of non-deterministic measurements.
func New(n int, rng *rand.Rand) *Tableau {
	if n < 1 {
		panic("chp: need at least one qubit")
	}
	rows := 2*n + 1
	rw := (rows + 63) / 64
	t := &Tableau{
		n:        n,
		rowWords: rw,
		qWords:   (n + 63) / 64,
		xz:       make([]uint64, 2*n*rw),
		sign:     make([]uint64, rw),
		rng:      rng,
		m:        make([]uint64, rw),
		ms:       make([]uint64, rw),
		s0:       make([]uint64, rw),
		s1:       make([]uint64, rw),
	}
	t.stabMask = make([]uint64, rw)
	t.destabMask = make([]uint64, rw)
	for i := 0; i < n; i++ {
		setPlaneBit(t.destabMask, i)
		setPlaneBit(t.stabMask, n+i)
	}
	for q := 0; q < n; q++ {
		setPlaneBit(t.xcol(q), q)   // destabilizer q = X_q
		setPlaneBit(t.zcol(q), n+q) // stabilizer q = Z_q
	}
	return t
}

// NumQubits returns n.
func (t *Tableau) NumQubits() int { return t.n }

// Reinit restores the all-zeros state |0...0⟩ in place and replaces the
// measurement RNG, reusing every allocation — equivalent to New(n, rng)
// for an already-sized tableau. The Monte-Carlo drivers use it to recycle
// one tableau across samples instead of reallocating the whole stack.
func (t *Tableau) Reinit(rng *rand.Rand) {
	for i := range t.xz {
		t.xz[i] = 0
	}
	for i := range t.sign {
		t.sign[i] = 0
	}
	for q := 0; q < t.n; q++ {
		setPlaneBit(t.xcol(q), q)     // destabilizer q = X_q
		setPlaneBit(t.zcol(q), t.n+q) // stabilizer q = Z_q
	}
	t.rng = rng
}

func (t *Tableau) check(q int) {
	if q < 0 || q >= t.n {
		// The Sprintf only runs on the panic path, never on a
		// successful gate application.
		//qa:allow hotpath panic-path formatting, unreachable in valid circuits
		panic(fmt.Sprintf("chp: qubit %d out of range [0,%d)", q, t.n))
	}
}

// xcol returns the X bit-plane of qubit q (one bit per row).
func (t *Tableau) xcol(q int) []uint64 {
	base := 2 * q * t.rowWords
	return t.xz[base : base+t.rowWords : base+t.rowWords]
}

// zcol returns the Z bit-plane of qubit q.
func (t *Tableau) zcol(q int) []uint64 {
	base := (2*q + 1) * t.rowWords
	return t.xz[base : base+t.rowWords : base+t.rowWords]
}

func planeBit(p []uint64, i int) bool { return p[i>>6]&(1<<uint(i&63)) != 0 }
func setPlaneBit(p []uint64, i int)   { p[i>>6] |= 1 << uint(i&63) }
func clearPlaneBit(p []uint64, i int) { p[i>>6] &^= 1 << uint(i&63) }

func setPlaneBitTo(p []uint64, i int, v bool) {
	if v {
		setPlaneBit(p, i)
	} else {
		clearPlaneBit(p, i)
	}
}

// shiftPlaneLeft writes dst = src << k across words (bits move toward
// higher row indices).
func shiftPlaneLeft(dst, src []uint64, k int) {
	ws, bs := k>>6, uint(k&63)
	for w := len(dst) - 1; w >= 0; w-- {
		var v uint64
		if sw := w - ws; sw >= 0 {
			v = src[sw] << bs
			if bs > 0 && sw > 0 {
				v |= src[sw-1] >> (64 - bs)
			}
		}
		dst[w] = v
	}
}

// prefixParity64 returns the inclusive prefix parity of x: output bit i is
// the parity of input bits 0..i (a carry-less multiply by all-ones).
func prefixParity64(x uint64) uint64 {
	x ^= x << 1
	x ^= x << 2
	x ^= x << 4
	x ^= x << 8
	x ^= x << 16
	x ^= x << 32
	return x
}

// The gate methods below touch only the columns of their operand qubits.
// They deliberately include the scratch row (bit 2n) in the word-wide
// updates: it is zeroed before every use, so stale bits are harmless.

// H applies a Hadamard gate to qubit q: X↔Z per row, sign flips on Y.
//
//qa:hotpath
func (t *Tableau) H(q int) {
	t.check(q)
	x, z, s := t.xcol(q), t.zcol(q), t.sign
	for w := range x {
		xw, zw := x[w], z[w]
		s[w] ^= xw & zw
		x[w], z[w] = zw, xw
	}
}

// S applies the phase gate to qubit q: X→Y, Y→−X.
//
//qa:hotpath
func (t *Tableau) S(q int) {
	t.check(q)
	x, z, s := t.xcol(q), t.zcol(q), t.sign
	for w := range x {
		xw := x[w]
		s[w] ^= xw & z[w]
		z[w] ^= xw
	}
}

// Sdg applies the inverse phase gate directly: X→−Y, Y→X.
//
//qa:hotpath
func (t *Tableau) Sdg(q int) {
	t.check(q)
	x, z, s := t.xcol(q), t.zcol(q), t.sign
	for w := range x {
		xw := x[w]
		s[w] ^= xw &^ z[w]
		z[w] ^= xw
	}
}

// X applies a Pauli-X gate: conjugation flips the sign of rows with a Z
// component on q.
//
//qa:hotpath
func (t *Tableau) X(q int) {
	t.check(q)
	z, s := t.zcol(q), t.sign
	for w := range z {
		s[w] ^= z[w]
	}
}

// Z applies a Pauli-Z gate.
//
//qa:hotpath
func (t *Tableau) Z(q int) {
	t.check(q)
	x, s := t.xcol(q), t.sign
	for w := range x {
		s[w] ^= x[w]
	}
}

// Y applies a Pauli-Y gate.
//
//qa:hotpath
func (t *Tableau) Y(q int) {
	t.check(q)
	x, z, s := t.xcol(q), t.zcol(q), t.sign
	for w := range x {
		s[w] ^= x[w] ^ z[w]
	}
}

// CNOT applies a controlled-NOT with control c and target d.
//
//qa:hotpath
func (t *Tableau) CNOT(c, d int) {
	t.check(c)
	t.check(d)
	if c == d {
		panic("chp: CNOT control equals target")
	}
	xc, zc := t.xcol(c), t.zcol(c)
	xd, zd := t.xcol(d), t.zcol(d)
	s := t.sign
	for w := range xc {
		xcw, zcw := xc[w], zc[w]
		xdw, zdw := xd[w], zd[w]
		s[w] ^= xcw & zdw &^ (xdw ^ zcw)
		xd[w] = xdw ^ xcw
		zc[w] = zcw ^ zdw
	}
}

// CZ applies a controlled-Z gate: X_a→X_aZ_b, X_b→X_bZ_a, sign flips on
// X⊗X-type rows with unequal Z components (the H·CNOT·H composition
// collapsed into one word-parallel pass).
//
//qa:hotpath
func (t *Tableau) CZ(a, b int) {
	t.check(a)
	t.check(b)
	if a == b {
		panic("chp: CZ control equals target")
	}
	xa, za := t.xcol(a), t.zcol(a)
	xb, zb := t.xcol(b), t.zcol(b)
	s := t.sign
	for w := range xa {
		xaw, zaw := xa[w], za[w]
		xbw, zbw := xb[w], zb[w]
		s[w] ^= xaw & xbw & (zaw ^ zbw)
		za[w] = zaw ^ xbw
		zb[w] = zbw ^ xaw
	}
}

// SWAP exchanges two qubits by swapping their column planes; no row sign
// ever changes under relabeling.
//
//qa:hotpath
func (t *Tableau) SWAP(a, b int) {
	t.check(a)
	t.check(b)
	if a == b {
		return
	}
	xa, za := t.xcol(a), t.zcol(a)
	xb, zb := t.xcol(b), t.zcol(b)
	for w := range xa {
		xa[w], xb[w] = xb[w], xa[w]
		za[w], zb[w] = zb[w], za[w]
	}
}

// Measure performs a computational-basis measurement of qubit q,
// returning 0 or 1 and whether the outcome was deterministic.
//
//qa:hotpath
func (t *Tableau) Measure(q int) (outcome int, deterministic bool) {
	t.check(q)
	x := t.xcol(q)
	// Look for the first stabilizer row with an X component on q.
	for w, word := range t.stabMask {
		if word &= x[w]; word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			return t.measureRandom(q, p), false
		}
	}
	return t.measureDeterministic(q), true
}

// measureRandom handles the non-deterministic branch: every other row
// with an X component on q absorbs pivot row p — all of them at once,
// word-parallel across rows, with a bit-sliced mod-4 phase accumulator —
// then the pivot pair is rewritten and the outcome drawn from the RNG.
// The update is exactly the sequence of Aaronson–Gottesman rowsums of the
// row-major layout (each absorbing row reads only itself and the
// unchanged pivot), so seeded runs stay bit-for-bit reproducible.
//
//qa:hotpath
func (t *Tableau) measureRandom(q, p int) int {
	n, rw := t.n, t.rowWords
	d := p - n // destabilizer partner of the pivot
	// Absorbing rows: X component on q, excluding the pivot, its partner
	// (overwritten below; it may anti-commute with the pivot) and the
	// scratch row.
	m := t.m
	copy(m, t.xcol(q))
	clearPlaneBit(m, p)
	clearPlaneBit(m, d)
	clearPlaneBit(m, 2*n)
	// Phase accumulator per absorbing row: sum = 2·r_h + 2·r_p + Σ g.
	s0, s1 := t.s0, t.s1
	rp := planeBit(t.sign, p)
	for w := 0; w < rw; w++ {
		s0[w] = 0
		if rp {
			s1[w] = ^t.sign[w]
		} else {
			s1[w] = t.sign[w]
		}
	}
	pw, pb := p>>6, uint64(1)<<uint(p&63)
	for c := 0; c < n; c++ {
		xc, zc := t.xcol(c), t.zcol(c)
		x2 := xc[pw]&pb != 0
		z2 := zc[pw]&pb != 0
		// Fold the pivot-pair rewrite into the same column pass: row p
		// moves onto its destabilizer partner and is cleared. The
		// absorbing mask excludes both rows, so the order is immaterial.
		setPlaneBitTo(xc, d, x2)
		clearPlaneBit(xc, p)
		setPlaneBitTo(zc, d, z2)
		clearPlaneBit(zc, p)
		if !x2 && !z2 {
			continue
		}
		for w := 0; w < rw; w++ {
			mm := m[w]
			x1, z1 := xc[w], zc[w]
			// Specialize the Aaronson–Gottesman phase function g for the
			// pivot's Pauli on this column (X, Z or Y).
			var pos, neg uint64
			switch {
			case x2 && z2: // pivot has Y
				pos, neg = x1&^z1, z1&^x1
			case x2: // pivot has X
				pos, neg = z1&^x1, x1&z1
			default: // pivot has Z
				pos, neg = x1&z1, x1&^z1
			}
			pos &= mm
			neg &= mm
			s1[w] ^= s0[w] & pos // sum += 1 on pos lanes
			s0[w] ^= pos
			s1[w] ^= ^s0[w] & neg // sum -= 1 on neg lanes
			s0[w] ^= neg
			if x2 {
				xc[w] ^= mm
			}
			if z2 {
				zc[w] ^= mm
			}
		}
	}
	for w := 0; w < rw; w++ {
		if s0[w]&m[w] != 0 {
			panic("chp: rowsum phase is imaginary; tableau corrupted")
		}
		t.sign[w] = t.sign[w]&^m[w] | s1[w]&m[w]
	}
	// The pivot pair: the partner inherits the pivot row (including its
	// sign) and the pivot becomes ±Z_q with the drawn outcome.
	setPlaneBitTo(t.sign, d, rp)
	clearPlaneBit(t.sign, p)
	setPlaneBit(t.zcol(q), p)
	out := 0
	if t.rng.Intn(2) == 1 {
		out = 1
		setPlaneBit(t.sign, p)
	}
	return out
}

// measureDeterministic evaluates the outcome without mutating the state:
// the product of the stabilizer rows selected by destabilizers with an X
// component on q is ±Z_q, and its sign is the outcome. When exactly one
// row is selected — most measurements of a stabilizer-code ancilla —
// that row is ±Z_q itself and its sign bit is the outcome (for a single
// factor every per-column phase term of productSignExponent cancels).
// Otherwise productSignExponent multiplies the selected rows, skipping
// every column word they do not touch.
//
//qa:hotpath
func (t *Tableau) measureDeterministic(q int) int {
	n, rw := t.n, t.rowWords
	md := t.m
	xq := t.xcol(q)
	selected, last := 0, 0 // last: the highest word holding a selection
	for w := 0; w < rw; w++ {
		md[w] = xq[w] & t.destabMask[w]
		if md[w] != 0 {
			selected += bits.OnesCount64(md[w])
			last = w
		}
	}
	if selected == 1 {
		r := n + last<<6 + bits.TrailingZeros64(md[last]) // the stabilizer row
		return int(t.sign[r>>6]>>uint(r&63)) & 1
	}
	ms := t.ms
	shiftPlaneLeft(ms, md, n)
	return t.productSignExponent(ms) >> 1
}

// productSignExponent returns the i-exponent (0 or 2, i.e. sign + or −)
// of the ordered product of the rows selected by the bit-plane mask ms,
// multiplied in ascending row order. Panics when the exponent is odd,
// which cannot happen for commuting selections. Writing each single-qubit
// factor as σ = i^{xz}·X^x Z^z, the product over one column contributes
//
//	Σ_l x_l z_l  +  2·Σ_{j<l} z_j x_l  −  X·Z   (mod 4)
//
// with X = Σx_l, Z = Σz_l mod 2: the first term unpacks the Y factors,
// the second counts the Z·X reorderings, the last renormalizes the
// result. The middle sum needs only its parity, which one prefix-parity
// word per 64 rows delivers without iterating the selected rows.
//
// The cost follows the selected rows, not the tableau: only the words
// between the first and last selected row are read, and a column word
// on which no selected row has support adds zero to every term (and
// leaves the prefix carry alone), so it is skipped before any popcount.
//
//qa:hotpath
func (t *Tableau) productSignExponent(ms []uint64) int {
	rw := t.rowWords
	e := 0
	lo, hi := 0, 0 // the selected rows lie in words lo..hi-1
	for w := 0; w < rw; w++ {
		if ms[w] != 0 {
			if hi == 0 {
				lo = w
			}
			hi = w + 1
		}
		e += 2 * bits.OnesCount64(t.sign[w]&ms[w])
	}
	sel := ms[lo:hi]
	xz := t.xz
	for base := lo; base < len(xz); base += 2 * rw {
		xc, zc := xz[base:base+len(sel)], xz[base+rw:base+rw+len(sel)]
		// carry is all ones while the column's Z parity so far is odd;
		// xpar's low bit is its X parity.
		carry, xpar := uint64(0), 0
		for w, m := range sel {
			mx, mz := xc[w]&m, zc[w]&m
			if mx|mz == 0 {
				continue
			}
			e += bits.OnesCount64(mx&mz) + 2*bits.OnesCount64(mx&(prefixParity64(mz)<<1^carry))
			carry ^= -(uint64(bits.OnesCount64(mz)) & 1)
			xpar ^= bits.OnesCount64(mx)
		}
		e += 3 * (xpar & int(carry&1))
	}
	e &= 3
	if e&1 != 0 {
		panic("chp: rowsum phase is imaginary; tableau corrupted")
	}
	return e
}

// productComponent reports the X/Z components on column c of the product
// of the rows selected by ms (the XOR, i.e. popcount parity, of the
// selected bits).
func (t *Tableau) productComponent(ms []uint64, c int) (x, z bool) {
	xc, zc := t.xcol(c), t.zcol(c)
	xp, zp := 0, 0
	for w := range ms {
		xp ^= bits.OnesCount64(xc[w]&ms[w]) & 1
		zp ^= bits.OnesCount64(zc[w]&ms[w]) & 1
	}
	return xp == 1, zp == 1
}

// MeasureBit measures and returns only the outcome.
func (t *Tableau) MeasureBit(q int) int {
	out, _ := t.Measure(q)
	return out
}

// Reset forces qubit q to |0⟩ by measuring and flipping when necessary.
func (t *Tableau) Reset(q int) {
	if out, _ := t.Measure(q); out == 1 {
		t.X(q)
	}
}

// Clone deep-copies the tableau (sharing the RNG).
func (t *Tableau) Clone() *Tableau {
	rw := t.rowWords
	cp := &Tableau{
		n:          t.n,
		rowWords:   rw,
		qWords:     t.qWords,
		xz:         append([]uint64(nil), t.xz...),
		sign:       append([]uint64(nil), t.sign...),
		stabMask:   t.stabMask,
		destabMask: t.destabMask,
		rng:        t.rng,
		m:          make([]uint64, rw),
		ms:         make([]uint64, rw),
		s0:         make([]uint64, rw),
		s1:         make([]uint64, rw),
	}
	return cp
}

// StabilizerInto gathers stabilizer generator i (0 ≤ i < n) into the
// reusable dense buffer without allocating.
func (t *Tableau) StabilizerInto(i int, d *pauli.Dense) {
	t.rowInto(t.n+i, d)
}

// rowInto extracts tableau row ri into a dense buffer.
func (t *Tableau) rowInto(ri int, d *pauli.Dense) {
	d.Reset(t.n)
	w, b := ri>>6, uint64(1)<<uint(ri&63)
	rw := t.rowWords
	base := w
	for q := 0; q < t.n; q++ {
		var p pauli.Pauli
		if t.xz[2*q*rw+base]&b != 0 {
			p = pauli.X
		}
		if t.xz[(2*q+1)*rw+base]&b != 0 {
			p |= pauli.Z
		}
		d.Ops[q] = p
	}
	d.Negative = t.sign[w]&b != 0
}

// Stabilizers returns the current stabilizer generators as Pauli strings.
func (t *Tableau) Stabilizers() []pauli.PauliString {
	out := make([]pauli.PauliString, t.n)
	for i := 0; i < t.n; i++ {
		t.StabilizerInto(i, &t.dense)
		out[i] = t.dense.Sparse()
	}
	return out
}
