// Package statevec implements a universal state-vector quantum simulator,
// the in-process substitute for the QX Simulator back-end of the thesis
// (§4.1.1). It stores the full 2^n vector of complex amplitudes, applies
// gates through specialized kernels (kernels.go, dispatch.go) with the
// generic matrix-vector path retained as the differential-test oracle,
// and performs projective computational-basis measurements. Qubit 0 is
// the least significant bit of a basis index, matching the thesis
// listings where the rightmost bit of |000000110⟩ is data qubit 0.
package statevec

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"strings"
)

// normTol bounds how far |amp|² may drift from 1 in FromAmplitudes.
const normTol = 1e-6

// State is a pure quantum state of n qubits.
type State struct {
	n   int
	amp []complex128
	rng *rand.Rand
	// workers is the resolved kernel shard count (≥ 1, default 1).
	workers int
	// red holds per-block partial sums for the deterministic reductions
	// (one slot per fixed reduction block, see dispatch.go).
	red []complex128
}

// MaxQubits is the widest state New builds: 2^30 amplitudes take 16 GiB.
const MaxQubits = 30

// New creates the all-zeros state |0...0⟩ of n qubits. The supplied RNG
// drives measurement outcomes; pass a seeded source for reproducibility.
func New(n int, rng *rand.Rand) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("statevec: unsupported qubit count %d", n))
	}
	s := &State{n: n, amp: make([]complex128, 1<<n), rng: rng, workers: 1}
	s.red = make([]complex128, numReduceBlocks(len(s.amp)))
	s.amp[0] = 1
	return s
}

// FromAmplitudes builds a state from an explicit amplitude vector whose
// length must be a power of two and whose 2-norm must be 1 within
// tolerance (matching the strictness of New, which only ever produces
// normalized states). The vector is used directly (not copied).
func FromAmplitudes(amp []complex128, rng *rand.Rand) *State {
	n := 0
	for 1<<n < len(amp) {
		n++
	}
	if 1<<n != len(amp) || n < 1 {
		panic(fmt.Sprintf("statevec: amplitude vector length %d is not a power of two", len(amp)))
	}
	n2 := 0.0
	for _, a := range amp {
		n2 += real(a)*real(a) + imag(a)*imag(a)
	}
	if math.Abs(n2-1) > normTol {
		panic(fmt.Sprintf("statevec: amplitude vector is not normalized (|amp|² = %g)", n2))
	}
	s := &State{n: n, amp: amp, rng: rng, workers: 1}
	s.red = make([]complex128, numReduceBlocks(len(amp)))
	return s
}

// numReduceBlocks sizes the partial-sum scratch for an amplitude count.
func numReduceBlocks(m int) int {
	nb := (m + reduceBlock - 1) >> reduceBlockShift
	if nb < 1 {
		nb = 1
	}
	return nb
}

// NumQubits returns n.
func (s *State) NumQubits() int { return s.n }

// Amplitudes returns a copy of the amplitude vector.
func (s *State) Amplitudes() []complex128 {
	return append([]complex128(nil), s.amp...)
}

// checkQubits validates qubit indices.
func (s *State) checkQubits(qs []int) {
	for _, q := range qs {
		if q < 0 || q >= s.n {
			panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, s.n))
		}
	}
}

// ApplyMatrix applies an arbitrary 2^k × 2^k unitary to the listed
// qubits through the generic gather/scatter loop. This is the reference
// path: ApplyGate dispatches to the specialized kernels instead, and the
// differential tests drive both through identical circuits requiring
// exact agreement (the chp.Reference pattern).
func (s *State) ApplyMatrix(m []complex128, qubits ...int) {
	s.checkQubits(qubits)
	k := len(qubits)
	dim := 1 << k
	if len(m) != dim*dim {
		panic(fmt.Sprintf("statevec: matrix size %d does not match %d qubits", len(m), k))
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if qubits[i] == qubits[j] {
				panic("statevec: repeated qubit in gate operand list")
			}
		}
	}
	// Masks for the target bits; qubits[0] is the most significant local bit.
	masks := make([]uint, k)
	for i, q := range qubits {
		masks[k-1-i] = 1 << uint(q) // local bit i (LSB-first) ↔ qubits[k-1-i]
	}
	allMask := uint(0)
	for _, mk := range masks {
		allMask |= mk
	}
	scratch := make([]complex128, dim)
	total := uint(1) << uint(s.n)
	for base := uint(0); base < total; base++ {
		if base&allMask != 0 {
			continue
		}
		// Gather the 2^k amplitudes of this block.
		for loc := 0; loc < dim; loc++ {
			idx := base
			for b := 0; b < k; b++ {
				if loc&(1<<uint(b)) != 0 {
					idx |= masks[b]
				}
			}
			scratch[loc] = s.amp[idx]
		}
		// Multiply and scatter.
		for row := 0; row < dim; row++ {
			var sum complex128
			for col := 0; col < dim; col++ {
				// Deliberate exact compare: skipping structural zeros of
				// the gate matrix, not a rounded-value comparison.
				//qa:allow float-eq
				if m[row*dim+col] != 0 {
					sum += m[row*dim+col] * scratch[col]
				}
			}
			idx := base
			for b := 0; b < k; b++ {
				if row&(1<<uint(b)) != 0 {
					idx |= masks[b]
				}
			}
			s.amp[idx] = sum
		}
	}
}

// EqualUpToGlobalPhase reports whether two states are equal up to a
// global phase factor, within tolerance, and returns the phase.
func EqualUpToGlobalPhase(a, b *State, tol float64) (bool, complex128) {
	if a.n != b.n {
		return false, 0
	}
	// Find the largest amplitude of b to define the phase.
	best, bestMag := -1, tol
	for i, v := range b.amp {
		if m := cmplx.Abs(v); m > bestMag {
			best, bestMag = i, m
		}
	}
	if best < 0 {
		return false, 0
	}
	phase := a.amp[best] / b.amp[best]
	if math.Abs(cmplx.Abs(phase)-1) > tol {
		return false, 0
	}
	for i := range a.amp {
		if cmplx.Abs(a.amp[i]-phase*b.amp[i]) > tol {
			return false, 0
		}
	}
	return true, phase
}

// SupportEntry is one nonzero component of the state.
type SupportEntry struct {
	Basis uint
	Amp   complex128
}

// Support lists the nonzero basis components sorted by basis index.
func (s *State) Support(tol float64) []SupportEntry {
	var out []SupportEntry
	for i, a := range s.amp {
		if cmplx.Abs(a) > tol {
			out = append(out, SupportEntry{Basis: uint(i), Amp: a})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Basis < out[j].Basis })
	return out
}

// SupportString renders the support in the thesis listing style, e.g.
// "(0.25+0j) |000000110>". Qubit 0 is the rightmost bit.
func (s *State) SupportString(tol float64) string {
	var b strings.Builder
	for _, e := range s.Support(tol) {
		fmt.Fprintf(&b, "(%s) |%s>\n", fmtComplex(e.Amp), basisString(e.Basis, s.n))
	}
	return b.String()
}

func basisString(v uint, n int) string {
	bs := make([]byte, n)
	for i := 0; i < n; i++ {
		if v&(1<<uint(n-1-i)) != 0 {
			bs[i] = '1'
		} else {
			bs[i] = '0'
		}
	}
	return string(bs)
}

func fmtComplex(c complex128) string {
	re, im := real(c), imag(c)
	round := func(f float64) float64 { return math.Round(f*1e6) / 1e6 }
	return fmt.Sprintf("%g%+gj", round(re), round(im))
}

// ExtractSubsystem returns the state of the listed qubits under the
// assumption that every other qubit is in a definite computational-basis
// state (true right after those qubits were measured or reset). It errors
// when the complement is not in a product basis state.
func (s *State) ExtractSubsystem(keep []int) (*State, error) {
	s.checkQubits(keep)
	inKeep := map[int]bool{}
	for _, q := range keep {
		inKeep[q] = true
	}
	var restMask uint
	for q := 0; q < s.n; q++ {
		if !inKeep[q] {
			restMask |= 1 << uint(q)
		}
	}
	const tol = 1e-9
	restVal := uint(0)
	found := false
	for i, a := range s.amp {
		if cmplx.Abs(a) <= tol {
			continue
		}
		rv := uint(i) & restMask
		if !found {
			restVal, found = rv, true
		} else if rv != restVal {
			return nil, fmt.Errorf("statevec: complement qubits are entangled with the subsystem")
		}
	}
	if !found {
		return nil, fmt.Errorf("statevec: zero state")
	}
	out := New(len(keep), s.rng)
	out.workers = s.workers
	out.amp[0] = 0
	for i, a := range s.amp {
		if uint(i)&restMask != restVal {
			continue
		}
		var sub uint
		for bi, q := range keep {
			if uint(i)&(1<<uint(q)) != 0 {
				sub |= 1 << uint(bi)
			}
		}
		out.amp[sub] = a
	}
	return out, nil
}

// Clone deep-copies the state (sharing the RNG, keeping the worker
// setting, with a private reduction scratch).
func (s *State) Clone() *State {
	return &State{
		n:       s.n,
		amp:     append([]complex128(nil), s.amp...),
		rng:     s.rng,
		workers: s.workers,
		red:     make([]complex128, numReduceBlocks(len(s.amp))),
	}
}
