// Steane [[7,1,3]] front-end for the bit-sliced frame executor: the same
// compile step, fused noise runs, lane layout, diagnostic step and shot
// accounting as the SC17 Engine (protocol.go), driving the Steane layer's
// ESM/decode cycle instead of the ninja star's. The Hamming decode is
// word-parallel: the two-round agreement rule is a handful of boolean
// plane ops, and the "syndrome spells the faulty qubit" rule becomes
// seven 3-AND match masks — no scalar per-lane decode at all.

package framesim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/layers"
	"repro/internal/steane"
)

// SteaneTrace records what one Steane QEC window did for shot lane 0;
// the differential test compares traces against the manually driven
// steane.Layer stack.
type SteaneTrace struct {
	// SX / SZ are the raw X-check and Z-check syndromes of the round.
	SX, SZ int
	// CorrZ / CorrX name the data qubit corrected per error type, or -1.
	CorrZ, CorrX int
	// DiagSX / DiagSZ are the noiseless diagnostic round syndromes.
	DiagSX, DiagSZ int
	// Clean reports whether the diagnostic round was all-zero.
	Clean bool
	// Probe is the probe outcome, or -1 when the shot was not probed.
	Probe int
}

// SteaneEngine is the compiled windows protocol for one logical Steane
// qubit: ESM and probe tapes over the 13 physical qubits, reference
// outcomes, and the Hamming decode wiring. Like Engine it is immutable
// after construction and safe for concurrent runs.
//
// A window is one noisy ESM round (the Steane layer decodes every round;
// the surface-code stack needs two per window), a word-parallel
// two-round-agreement Hamming decode with corrections, then the
// noiseless diagnostic round and probe shared with the SC17 protocol.
type SteaneEngine struct {
	protocol

	// siteOfCheck maps check c (0..2 X checks, 3..5 Z checks) to its ESM
	// measurement site.
	siteOfCheck [steane.NumAncilla]int

	// sparse enables the whole-batch window skip: when every live lane
	// word is canonical (zero frame, zero carried syndrome, zero
	// expectation) the geometric gap samplers bound how many windows can
	// pass before the next hit, and the engine jumps over all of them at
	// once. The 13-qubit block is too small for the event-driven per-qubit
	// machinery of the SC17 sparse engine to pay off; window-granular gap
	// skipping captures the same low-p asymptotics. The skip needs frame
	// canonicalization (protocol.canon), which identifies "zero frame"
	// with "reference outcomes": the reference words must be zero (they
	// are — the post-init state carries all +1 stabilizers — but the
	// engine verifies rather than assumes).
	sparse bool
}

// NewSteane compiles the Steane windows protocol for one configuration.
// Config fields specific to the surface-code stack (InitRounds,
// DecoderRule, DenseThreshold) are ignored: the Steane layer projects
// the codespace with a single sign-fixed ESM round and always decodes by
// two-round agreement.
func NewSteane(cfg Config) (*SteaneEngine, error) { return newSteane(cfg, false) }

// NewSteaneSparse is NewSteane with the whole-batch window skip enabled.
// Sampled results are bit-identical to NewSteane's — the skip is exact,
// not approximate — it just spends no time on all-clean window spans.
func NewSteaneSparse(cfg Config) (*SteaneEngine, error) { return newSteane(cfg, true) }

func newSteane(cfg Config, sparse bool) (*SteaneEngine, error) {
	cfg = cfg.withDefaults()
	core := layers.NewChpCore(rand.New(rand.NewSource(cfg.RefSeed)))
	lay := steane.NewLayer(core)
	p, err := compileProtocol(cfg, core, lay, 1, func() (*circuit.Circuit, *circuit.Circuit, error) {
		// The tapes address physical qubits; the decode masks address
		// data indices. With one block on a fresh core they coincide.
		data, anc := lay.Block(0)
		for d := 0; d < steane.NumData; d++ {
			if data[d] != d {
				return nil, nil, fmt.Errorf("framesim: steane data qubit %d placed at %d; expected identity layout", d, data[d])
			}
		}
		for a := 0; a < steane.NumAncilla; a++ {
			if anc[a] != steane.NumData+a {
				return nil, nil, fmt.Errorf("framesim: steane ancilla %d placed at %d; expected identity layout", a, anc[a])
			}
		}
		if cfg.Observable == ObserveZ {
			return lay.ESMCircuit(0), lay.ProbeXLCircuit(0), nil
		}
		return lay.ESMCircuit(0), lay.ProbeZLCircuit(0), nil
	})
	if err != nil {
		return nil, err
	}
	if p.esm.NumMeas() != steane.NumAncilla {
		return nil, fmt.Errorf("framesim: steane ESM has %d measurement sites; want %d", p.esm.NumMeas(), steane.NumAncilla)
	}
	p.canon = p.zeroRefs()
	e := &SteaneEngine{protocol: p, sparse: sparse}
	var seen [steane.NumAncilla]bool
	for i := 0; i < e.esm.NumMeas(); i++ {
		c := e.esm.MeasQubit(i) - steane.NumData
		if c < 0 || c >= steane.NumAncilla || seen[c] {
			return nil, fmt.Errorf("framesim: steane ESM site %d measures qubit %d; want each ancilla once", i, e.esm.MeasQubit(i))
		}
		seen[c] = true
		e.siteOfCheck[c] = i
	}
	return e, nil
}

// RunBatch runs up to 64 Monte-Carlo shots in one word; semantics match
// Engine.RunBatch.
func (e *SteaneEngine) RunBatch(seed int64, shots int) ([]ShotResult, error) {
	var seeds [1]int64
	seeds[0] = seed
	return e.RunBatchWide(seeds[:], shots)
}

// RunBatchWide runs up to 64·len(seeds) shots in one W-wide batch; word
// k is an independent run seeded by seeds[k], bit-identical to a width-1
// RunBatch from the same seed. Semantics match Engine.RunBatchWide.
func (e *SteaneEngine) RunBatchWide(seeds []int64, shots int) ([]ShotResult, error) {
	if err := checkWide(seeds, shots); err != nil {
		return nil, err
	}
	st := e.newRunState(seeds, nil)
	res := make([]ShotResult, 64*len(seeds))
	e.runWindows(st, res, shots, 0, nil)
	return res[:shots], nil
}

// RunScripted runs exactly `windows` QEC windows of a single shot with
// the Script's errors injected instead of sampled noise, recording a
// SteaneTrace per window. Like the SC17 scripted mode (and following the
// sparse engine's precedent) canonicalization and window skipping are
// disabled, so the traces and the frame state after every round are
// bit-identical to what the QPDO stack observes.
func (e *SteaneEngine) RunScripted(windows int, script Script) ([]SteaneTrace, ShotResult, error) {
	if windows < 0 {
		return nil, ShotResult{}, fmt.Errorf("framesim: negative window count %d", windows)
	}
	if script == nil {
		script = Script{}
	}
	var seeds [1]int64
	st := e.newRunState(seeds[:], script)
	res := make([]ShotResult, 64)
	traces := make([]SteaneTrace, 0, windows)
	e.runWindows(st, res, 1, windows, &traces)
	return traces, res[0], nil
}

// runWindows drives the Steane window loop; structure and lane/word
// semantics match Engine.runWindows (dead-word skip, scripted lane 0).
// st.carryA[k][0..2] / st.carryB[k][0..2] hold the carried X-check /
// Z-check syndrome planes of the two-round agreement rule.
func (e *SteaneEngine) runWindows(st *runState, res []ShotResult, shots, scriptWindows int, traces *[]SteaneTrace) {
	W := st.w
	st.activate(shots)
	// Trial-space spans of one ESM round per channel, for the sparse skip.
	spanSingle := int64(len(e.esmFused.singleQ)) << 6
	spanMeas := int64(len(e.esmFused.measQ)) << 6
	spanPair := int64(len(e.esmFused.pairA)) << 6
	prevValid := false
	var tr SteaneTrace
	w := 0
	for e.more(st, w, scriptWindows) {
		// Sparse whole-batch skip: when every live word is canonical (all
		// plane, carried-syndrome and expectation bits zero) a window with
		// no channel hits changes nothing — frame stays zero, syndromes
		// stay zero, diagnostics stay clean, the probe matches the
		// expectation. The gap samplers bound how many hit-free windows
		// lie ahead; jump them all, advancing each live word's samplers by
		// the skipped trial spans (bit-identical to running the empty
		// windows: no gap is drawn between hits).
		if st.script == nil && e.sparse && e.canon {
			nSkip := int64(e.cfg.MaxWindows - w)
			for k := 0; k < W && nSkip > 0; k++ {
				if st.active[k] == 0 {
					continue
				}
				if st.expected[k] != 0 {
					nSkip = 0
					break
				}
				carry := uint64(0)
				for c := 0; c < 3; c++ {
					carry |= st.carryA[k][c] | st.carryB[k][c]
				}
				if carry != 0 {
					nSkip = 0
					break
				}
				dirty := uint64(0)
				for q := 0; q < e.n; q++ {
					dirty |= st.b.fx[q*W+k] | st.b.fz[q*W+k]
				}
				if dirty != 0 {
					nSkip = 0
					break
				}
				l := &st.lanes[k]
				if spanSingle > 0 && l.single.p > 0 && l.single.next/spanSingle < nSkip {
					nSkip = l.single.next / spanSingle
				}
				if spanMeas > 0 && l.meas.p > 0 && l.meas.next/spanMeas < nSkip {
					nSkip = l.meas.next / spanMeas
				}
				if spanPair > 0 && l.pair.p > 0 && l.pair.next/spanPair < nSkip {
					nSkip = l.pair.next / spanPair
				}
			}
			if nSkip > 0 {
				for k := 0; k < W; k++ {
					if st.active[k] == 0 {
						continue
					}
					l := &st.lanes[k]
					if l.single.p > 0 {
						l.single.next -= nSkip * spanSingle
					}
					if l.meas.p > 0 {
						l.meas.next -= nSkip * spanMeas
					}
					if l.pair.p > 0 {
						l.pair.next -= nSkip * spanPair
					}
				}
				w += int(nSkip)
				st.round += int(nSkip)
				// A skipped window is an executed all-zero window: the
				// two-round state becomes valid with zero carried syndrome.
				prevValid = true
				continue
			}
		}
		w++

		// One noisy ESM round: the fused program in sampled mode, the
		// site-exact tape for scripted injection.
		if st.script == nil {
			e.runFused(st, e.esmFused, e.refESM, st.r1)
		} else {
			e.runTape(st, e.esm, e.refESM, true, st.r1)
		}
		st.round++

		// Word-parallel two-round-agreement Hamming decode per lane word.
		for k := 0; k < W; k++ {
			if st.script == nil && st.active[k] == 0 {
				continue
			}
			var sx, sz [3]uint64
			for c := 0; c < 3; c++ {
				sx[c] = st.r1[e.siteOfCheck[c]*W+k]
				sz[c] = st.r1[e.siteOfCheck[3+c]*W+k]
			}
			px := &st.carryA[k]
			pz := &st.carryB[k]
			var corrZ, corrX uint64
			if prevValid {
				// Lanes whose nonzero syndrome repeats the previous round
				// decode now; the Hamming syndrome spells the data qubit.
				agreeX := ^((sx[0] ^ px[0]) | (sx[1] ^ px[1]) | (sx[2] ^ px[2]))
				agreeZ := ^((sz[0] ^ pz[0]) | (sz[1] ^ pz[1]) | (sz[2] ^ pz[2]))
				corrZ = agreeX & (sx[0] | sx[1] | sx[2])
				corrX = agreeZ & (sz[0] | sz[1] | sz[2])
				for d := 0; d < steane.NumData; d++ {
					pos := uint(d + 1)
					mz, mx := corrZ, corrX
					for c := 0; c < 3; c++ {
						if pos>>uint(c)&1 == 1 {
							mz &= sx[c]
							mx &= sz[c]
						} else {
							mz &^= sx[c]
							mx &^= sz[c]
						}
					}
					if mz != 0 {
						st.b.fz[d*W+k] ^= mz
					}
					if mx != 0 {
						st.b.fx[d*W+k] ^= mx
					}
				}
				// Corrected lanes clear their carried syndrome; the rest
				// carry the fresh round.
				for c := 0; c < 3; c++ {
					px[c] = sx[c] &^ corrZ
					pz[c] = sz[c] &^ corrX
				}
			} else {
				for c := 0; c < 3; c++ {
					px[c], pz[c] = sx[c], sz[c]
				}
			}
			// Correction accounting: one slot per correcting lane; a
			// Z and an X on the same qubit merge into one Y gate (equal
			// syndromes name the same qubit).
			if hasCorr := corrZ | corrX; hasCorr != 0 {
				eqSyn := ^((sx[0] ^ sz[0]) | (sx[1] ^ sz[1]) | (sx[2] ^ sz[2]))
				merged := corrZ & corrX & eqSyn
				for m := hasCorr & st.active[k]; m != 0; m &= m - 1 {
					j := bits.TrailingZeros64(m)
					r := &res[k*64+j]
					g := int(corrZ>>uint(j)&1) + int(corrX>>uint(j)&1) - int(merged>>uint(j)&1)
					r.CorrectionGates += g
					r.CorrectionSlots++
				}
				if st.script == nil && !e.cfg.WithPauliFrame {
					e.sampleCorrectionSlot(st, k, hasCorr)
				}
			}
			if k == 0 && traces != nil {
				sxv := int(sx[0]&1) | int(sx[1]&1)<<1 | int(sx[2]&1)<<2
				szv := int(sz[0]&1) | int(sz[1]&1)<<1 | int(sz[2]&1)<<2
				tr = SteaneTrace{SX: sxv, SZ: szv, CorrZ: -1, CorrX: -1, Probe: -1}
				if corrZ&1 == 1 {
					tr.CorrZ = steane.DecodeSyndrome(sxv)
				}
				if corrX&1 == 1 {
					tr.CorrX = steane.DecodeSyndrome(szv)
				}
			}
		}
		prevValid = true

		clean, out := e.diagnose(st, res, w)
		if traces != nil {
			tr.DiagSX = int(st.diag[e.siteOfCheck[0]*W]&1) |
				int(st.diag[e.siteOfCheck[1]*W]&1)<<1 |
				int(st.diag[e.siteOfCheck[2]*W]&1)<<2
			tr.DiagSZ = int(st.diag[e.siteOfCheck[3]*W]&1) |
				int(st.diag[e.siteOfCheck[4]*W]&1)<<1 |
				int(st.diag[e.siteOfCheck[5]*W]&1)<<2
			tr.Clean = clean&1 == 1
			if tr.Clean {
				tr.Probe = int(out & 1)
			}
			*traces = append(*traces, tr)
		}
	}
	e.finish(st, res, shots, w)
}
