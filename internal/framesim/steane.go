// Steane [[7,1,3]] front-end for the bit-sliced frame executor: the same
// compile step, window loop, fused noise runs, lane layout, diagnostic
// step and shot accounting as the SC17 Engine (protocol.go), decoding
// the Steane layer's ESM cycle instead of the ninja star's. The Hamming
// decode is word-parallel: the two-round agreement rule is a handful of
// boolean plane ops, and the "syndrome spells the faulty qubit" rule
// becomes seven 3-AND match masks — no scalar per-lane decode at all.

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
// Sampled runs canonicalize clean lanes and so skip quiet windows
// outright: the 13-qubit block is too small for the sparse SC17 engine's
// event-driven walker to pay off, and the window-granular skip captures
// the same low-p asymptotics.
type SteaneEngine struct {
	protocol

	// siteOfCheck maps check c (0..2 X checks, 3..5 Z checks) to its ESM
	// measurement site.
	siteOfCheck [steane.NumAncilla]int
}

// NewSteane compiles the Steane windows protocol for one configuration.
// Config fields specific to the surface-code stack (InitRounds,
// DecoderRule, DenseThreshold) are ignored: the Steane layer projects
// the codespace with a single sign-fixed ESM round and always decodes by
// two-round agreement.
func NewSteane(cfg Config) (*SteaneEngine, error) {
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
	e := &SteaneEngine{protocol: p}
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
	return e.runBatchWide(e, []int64{seed}, shots)
}

// RunBatchWide runs up to 64·len(seeds) shots in one W-wide batch;
// semantics match Engine.RunBatchWide.
func (e *SteaneEngine) RunBatchWide(seeds []int64, shots int) ([]ShotResult, error) {
	return e.runBatchWide(e, seeds, shots)
}

// RunScripted runs exactly `windows` QEC windows of a single shot with
// the Script's errors injected instead of sampled noise, recording a
// SteaneTrace per window. Like the SC17 scripted mode, canonicalization
// and window skipping are off, so the traces and the frame state after
// every round are bit-identical to what the QPDO stack observes.
func (e *SteaneEngine) RunScripted(windows int, script Script) ([]SteaneTrace, ShotResult, error) {
	return runScripted(&e.protocol, e, windows, script, e.trace)
}

// decode is the word-parallel two-round-agreement Hamming decode of lane
// word k. st.carryA[k][0..2] / st.carryB[k][0..2] hold the carried
// X-check / Z-check syndrome planes; they start at zero, so a first
// round never agrees with a nonzero syndrome.
//
//qa:hotpath
func (e *SteaneEngine) decode(st *runState, res []ShotResult, k int) uint64 {
	W := st.w
	var sx, sz [3]uint64
	for c := 0; c < 3; c++ {
		sx[c] = st.r1[e.siteOfCheck[c]*W+k]
		sz[c] = st.r1[e.siteOfCheck[3+c]*W+k]
	}
	px := &st.carryA[k]
	pz := &st.carryB[k]
	// Lanes whose nonzero syndrome repeats the previous round decode now;
	// the Hamming syndrome spells the data qubit.
	agreeX := ^((sx[0] ^ px[0]) | (sx[1] ^ px[1]) | (sx[2] ^ px[2]))
	agreeZ := ^((sz[0] ^ pz[0]) | (sz[1] ^ pz[1]) | (sz[2] ^ pz[2]))
	corrZ := agreeX & (sx[0] | sx[1] | sx[2])
	corrX := agreeZ & (sz[0] | sz[1] | sz[2])
	var corr0Z, corr0X uint16
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
		corr0Z |= uint16(mz&1) << uint(d)
		corr0X |= uint16(mx&1) << uint(d)
	}
	// Corrected lanes clear their carried syndrome; the rest carry the
	// fresh round.
	for c := 0; c < 3; c++ {
		px[c] = sx[c] &^ corrZ
		pz[c] = sz[c] &^ corrX
	}
	if k == 0 {
		st.corr0[0], st.corr0[1] = corr0Z, corr0X
	}
	// Correction accounting: one slot per correcting lane; a Z and an X
	// on the same qubit merge into one Y gate (equal syndromes name the
	// same qubit).
	hasCorr := corrZ | corrX
	if hasCorr != 0 {
		eqSyn := ^((sx[0] ^ sz[0]) | (sx[1] ^ sz[1]) | (sx[2] ^ sz[2]))
		merged := corrZ & corrX & eqSyn
		for m := hasCorr & st.active[k]; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			r := &res[k*64+j]
			r.CorrectionGates += int(corrZ>>uint(j)&1) + int(corrX>>uint(j)&1) - int(merged>>uint(j)&1)
			r.CorrectionSlots++
		}
	}
	return hasCorr
}

// trace records lane 0's view of the window that just closed.
func (e *SteaneEngine) trace(st *runState, clean, out uint64) SteaneTrace {
	tr := SteaneTrace{
		SX: e.syndrome(st.r1, 0, st.w), SZ: e.syndrome(st.r1, 3, st.w),
		CorrZ: dataQubit(st.corr0[0]), CorrX: dataQubit(st.corr0[1]),
		DiagSX: e.syndrome(st.diag, 0, st.w), DiagSZ: e.syndrome(st.diag, 3, st.w),
		Clean: clean&1 == 1,
		Probe: -1,
	}
	if tr.Clean {
		tr.Probe = int(out & 1)
	}
	return tr
}

// syndrome reads lane 0's three-bit syndrome of checks c0..c0+2 from
// outcome words of width w.
func (e *SteaneEngine) syndrome(out []uint64, c0, w int) int {
	s := 0
	for c := 0; c < 3; c++ {
		s |= int(out[e.siteOfCheck[c0+c]*w]&1) << uint(c)
	}
	return s
}

// dataQubit names the qubit of a single-qubit correction mask, or -1.
func dataQubit(mask uint16) int {
	if mask == 0 {
		return -1
	}
	return bits.TrailingZeros16(mask)
}
