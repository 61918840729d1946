package framesim

import (
	"encoding/binary"
	"math/bits"
)

// roundMap is one tape compiled for the sparse engine's width-1 frame:
// what running the tape does to the frame, as data instead of a gate
// list. Noiseless propagation is linear over F₂ (Cliffords permute and
// XOR planes, Prep zeroes them, Meas reads an X plane), so a noisy
// execution of the tape is the noiseless map applied to the incoming
// frame plus, for every hit, the hit's Pauli carried from its site to the
// end of the tape:
//
//	planes' = T(planes) ⊕ Σ effect(hit)
//	out     = ref ⊕ outcomes(planes) ⊕ Σ flips(hit)
//
// The linear part is a list of terms, each the XOR of some incoming
// planes: srcX lists the pairs (q, t) where term t reads fx[q], srcZ
// those where it reads fz[q]. Terms 0..nMeas-1 are the measurement
// outcomes as functionals of the incoming planes; the rest are the
// output rows no outcome equals (an all-zero row reads a term with no
// source). setX and setZ list the pairs (q, t) where term t becomes
// fx'[q] or fz'[q]; identity rows are absent.
//
// The effects hold, for every error op, operand and Pauli component, the
// plane and outcome words that unit Pauli flips by the end of the tape.
// Op i's effects start at effAt[i] (-1 for ops that are not error
// sites), two per operand: X, then Z. Effect e flips the fx planes
// tgt[eoff[3e]:eoff[3e+1]], the fz planes tgt[eoff[3e+1]:eoff[3e+2]] and
// the outcomes tgt[eoff[3e+2]:eoff[3e+3]].
type roundMap struct {
	nMeas, nTerms int
	srcX, srcZ    []planeTerm
	setX, setZ    []planeTerm

	effAt     []int32
	tgt, eoff []int32
}

// planeTerm pairs the plane of qubit q with term t.
type planeTerm struct{ q, t int32 }

// newRoundMap compiles tape t. The rows come from symbolic passes that
// carry 64 incoming basis planes per pass in the lanes of a width-1
// batch, the effects from probe passes that carry 64 unit Paulis per
// pass, each injected when the pass reaches its site.
func newRoundMap(t *Tape) roundMap {
	n, nm := t.n, t.NumMeas()
	m := roundMap{nMeas: nm, effAt: make([]int32, len(t.ops)), eoff: []int32{0}}

	// Source sets over the 2n incoming planes: fx plane q is bit q of
	// words [0, nw), fz plane q bit q of words [nw, 2nw). Outcome i's set
	// is outSrc[i], output plane fx'[q]'s rowSrc[q] and fz'[q]'s
	// rowSrc[n+q].
	nw := (n + 63) / 64
	outSrc := make([][]uint64, nm)
	for i := range outSrc {
		outSrc[i] = make([]uint64, 2*nw)
	}
	rowSrc := make([][]uint64, 2*n)
	for r := range rowSrc {
		rowSrc[r] = make([]uint64, 2*nw)
	}
	for c := 0; c < nw; c++ {
		for side, zBasis := range []bool{false, true} {
			out, postX, postZ := symbolicPass(t, n, zBasis, 64*c)
			w := side*nw + c
			for i, v := range out {
				outSrc[i][w] = v
			}
			for q := 0; q < n; q++ {
				rowSrc[q][w], rowSrc[n+q][w] = postX[q], postZ[q]
			}
		}
	}

	terms := map[string]int32{}
	addTerm := func(set []uint64) int32 {
		id := int32(m.nTerms)
		m.nTerms++
		for c, word := range set[:nw] {
			for ; word != 0; word &= word - 1 {
				m.srcX = append(m.srcX, planeTerm{int32(64*c + bits.TrailingZeros64(word)), id})
			}
		}
		for c, word := range set[nw:] {
			for ; word != 0; word &= word - 1 {
				m.srcZ = append(m.srcZ, planeTerm{int32(64*c + bits.TrailingZeros64(word)), id})
			}
		}
		return id
	}
	for _, set := range outSrc {
		terms[setKey(set)] = addTerm(set)
	}
	unit := make([]uint64, 2*nw)
	for r, set := range rowSrc {
		side, q := r/n, r%n
		clear(unit)
		unit[side*nw+q/64] = 1 << uint(q%64)
		if equalWords(set, unit) {
			continue
		}
		k := setKey(set)
		id, ok := terms[k]
		if !ok {
			id = addTerm(set)
			terms[k] = id
		}
		if side == 0 {
			m.setX = append(m.setX, planeTerm{int32(q), id})
		} else {
			m.setZ = append(m.setZ, planeTerm{int32(q), id})
		}
	}

	// Unit Paulis in tape order: per error op and operand, X then Z.
	type unitPauli struct {
		op, q int32
		z     bool
	}
	var units []unitPauli
	for i := range t.ops {
		op := &t.ops[i]
		m.effAt[i] = -1
		switch op.code {
		case opErrSingle, opErrMeas, opErrPair:
			m.effAt[i] = int32(len(units))
			units = append(units, unitPauli{int32(i), op.a, false}, unitPauli{int32(i), op.a, true})
			if op.code == opErrPair {
				units = append(units, unitPauli{int32(i), op.b, false}, unitPauli{int32(i), op.b, true})
			}
		}
	}
	for c := 0; c < len(units); c += 64 {
		chunk := units[c:min(c+64, len(units))]
		b := NewBatch(n)
		next := 0
		out := propagateTape(t, b, int(chunk[0].op), func(i int) {
			for ; next < len(chunk) && int(chunk[next].op) == i; next++ {
				u := chunk[next]
				if u.z {
					b.fz[u.q] ^= 1 << uint(next)
				} else {
					b.fx[u.q] ^= 1 << uint(next)
				}
			}
		})
		for j := range chunk {
			for _, plane := range [][]uint64{b.fx, b.fz, out} {
				for q, v := range plane {
					if v>>uint(j)&1 != 0 {
						m.tgt = append(m.tgt, int32(q))
					}
				}
				m.eoff = append(m.eoff, int32(len(m.tgt)))
			}
		}
	}
	return m
}

// setKey encodes a source set as a map key.
func setKey(set []uint64) string {
	b := make([]byte, 0, 8*len(set))
	for _, w := range set {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

// apply replaces the width-1 planes fx, fz by their image under the
// tape's noiseless map and XORs the outcome functionals into out. val is
// scratch for the terms: every term reads the incoming planes before any
// plane is written.
//
//qa:hotpath
func (m *roundMap) apply(fx, fz, out, val []uint64) {
	val = val[:m.nTerms]
	for t := range val {
		val[t] = 0
	}
	for _, s := range m.srcX {
		val[s.t] ^= fx[s.q]
	}
	for _, s := range m.srcZ {
		val[s.t] ^= fz[s.q]
	}
	for i, v := range val[:m.nMeas] {
		out[i] ^= v
	}
	for _, s := range m.setX {
		fx[s.q] = val[s.t]
	}
	for _, s := range m.setZ {
		fz[s.q] = val[s.t]
	}
}

// flip XORs mask into every plane and outcome word effect e reaches.
//
//qa:hotpath
func (m *roundMap) flip(fx, fz, out []uint64, e int32, mask uint64) {
	tgt, o := m.tgt, m.eoff[3*e:3*e+4]
	for _, q := range tgt[o[0]:o[1]] {
		fx[q] ^= mask
	}
	for _, q := range tgt[o[1]:o[2]] {
		fz[q] ^= mask
	}
	for _, i := range tgt[o[2]:o[3]] {
		out[i] ^= mask
	}
}

// flipPauli flips the Pauli whose X component is on the lanes xm and
// whose Z component is on the lanes zm, through the X effect e and the Z
// effect e+1.
//
//qa:hotpath
func (m *roundMap) flipPauli(fx, fz, out []uint64, e int32, xm, zm uint64) {
	m.flip(fx, fz, out, e, xm)
	m.flip(fx, fz, out, e+1, zm)
}
