// The code-independent half of a compiled windows protocol, shared by the
// SC17 Engine and the Steane engine: one compile step (noiseless
// reference run, tapes, stationarity checks, noiseless-round shortcut,
// fused sampling program), the run state's lane bookkeeping, the
// noiseless diagnostic-and-probe step that closes every window, and the
// shot accounting. Only the decode, the per-window traces and the Steane
// engine's window skip stay code-specific.

package framesim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
)

// protocol is a compiled windows protocol without its decoder: the
// executor core, the ESM and probe tapes with their reference outcomes,
// and the per-window accounting constants. It is immutable after
// compileProtocol; all mutable state lives in runState.
type protocol struct {
	cfg Config
	tapeExec

	esm, probe       *Tape
	esmFused         *fusedProg
	refESM, refProbe []uint64

	// rounds is the number of noisy ESM rounds per window (2 for SC17's
	// windowed decode, 1 for Steane's per-round decode); esmOps/esmSlots
	// are one round's circuit size (48 and 8 for a full SC17 round).
	rounds, esmOps, esmSlots int

	// sc is the noiseless-round shortcut (newShortcut).
	sc shortcut

	// canon enables frame canonicalization of clean lanes in sampled
	// runs (see diagnose). Only valid with all-zero reference outcomes.
	canon bool
}

// compileProtocol is the compile step New and NewSteane share. lay is
// the code's QEC layer stacked on core, the CHP core of the noiseless
// reference run. It creates one logical qubit, initializes it exactly
// like the experiment harness (Prep, then a logical H for ObserveZ),
// takes the ESM round and probe circuits from circuits, and compiles
// them to tapes. The reference outcomes are then fixed by running each
// tape on the tableau twice, verifying the reference is deterministic
// and stationary (it must be: the post-init state carries all +1
// stabilizers), so frame propagation against fixed reference words is
// exact. rounds is the number of noisy ESM rounds per window.
func compileProtocol(cfg Config, core *layers.ChpCore, lay qpdo.Core, rounds int,
	circuits func() (esm, probe *circuit.Circuit, err error)) (protocol, error) {
	if err := cfg.Model.Validate(); err != nil {
		return protocol{}, err
	}
	if err := lay.CreateQubits(1); err != nil {
		return protocol{}, err
	}
	init := circuit.New().Add(gates.Prep, 0)
	if cfg.Observable == ObserveZ {
		init.Add(gates.H, 0)
	}
	if _, err := qpdo.Run(lay, init); err != nil {
		return protocol{}, err
	}
	esmC, probeC, err := circuits()
	if err != nil {
		return protocol{}, err
	}
	n := core.NumQubits()
	p := protocol{
		cfg:      cfg,
		tapeExec: tapeExec{n: n, chanParams: newChanParams(cfg.Model)},
		rounds:   rounds,
		esmOps:   esmC.NumOps(),
		esmSlots: esmC.NumSlots(),
	}
	if p.esm, err = Compile(esmC, n); err != nil {
		return protocol{}, err
	}
	if p.probe, err = Compile(probeC, n); err != nil {
		return protocol{}, err
	}

	tab := core.Tableau()
	if p.refESM, err = refRun(tab, p.esm); err != nil {
		return protocol{}, err
	}
	again, err := refRun(tab, p.esm)
	if err != nil {
		return protocol{}, err
	}
	if !equalWords(p.refESM, again) {
		return protocol{}, fmt.Errorf("framesim: ESM reference outcomes are not stationary")
	}
	if p.refProbe, err = refRun(tab, p.probe); err != nil {
		return protocol{}, err
	}
	if again, err = refRun(tab, p.probe); err != nil {
		return protocol{}, err
	}
	if !equalWords(p.refProbe, again) {
		return protocol{}, fmt.Errorf("framesim: probe reference outcome is not stationary")
	}
	// The probe must be QND with respect to the ESM reference.
	if again, err = refRun(tab, p.esm); err != nil {
		return protocol{}, err
	}
	if !equalWords(p.refESM, again) {
		return protocol{}, fmt.Errorf("framesim: probe disturbs the ESM reference outcomes")
	}
	p.sc = newShortcut(p.esm, p.probe, n, p.refProbe)
	p.esmFused = fuseTape(p.esm, p.corrPair)
	return p, nil
}

// zeroRefs reports whether every ESM reference outcome and the probe
// outcome are zero, so that a zero frame reads exactly the reference.
func (p *protocol) zeroRefs() bool {
	if p.refProbe[p.probe.NumMeas()-1] != 0 {
		return false
	}
	for _, v := range p.refESM {
		if v != 0 {
			return false
		}
	}
	return true
}

// ESMSites lists the error-injection sites of one ESM round (Round 0 in
// every returned Site); scripted callers offset Round per execution. A
// window consumes one round per noisy ESM execution — two for SC17, one
// for Steane — so a W-window scripted SC17 run draws rounds 0..2W-1 and
// a Steane run rounds 0..W-1.
func (p *protocol) ESMSites() []Site { return p.esm.Sites() }

// newRunState allocates the mutable state of one run: a W-wide batch on
// p.n qubits, one laneRun per word (RNG first, then — in sampled mode —
// the single/meas/pair samplers in that fixed draw order), and outcome
// scratch sized for the ESM and probe measurement sites.
func (p *protocol) newRunState(seeds []int64, script Script) *runState {
	w := len(seeds)
	esmMeas, probeMeas := p.esm.NumMeas(), p.probe.NumMeas()
	st := &runState{
		b:        NewBatchWide(p.n, w),
		w:        w,
		lanes:    make([]laneRun, w),
		script:   script,
		r1:       make([]uint64, esmMeas*w),
		r2:       make([]uint64, esmMeas*w),
		diag:     make([]uint64, esmMeas*w),
		probeOut: make([]uint64, probeMeas*w),
		carryA:   make([][4]uint64, w),
		carryB:   make([][4]uint64, w),
		expected: make([]uint64, w),
		active:   make([]uint64, w),
		inj:      make([]int, 64*w),
	}
	for k, seed := range seeds {
		l := &st.lanes[k]
		l.rng = rand.New(rand.NewSource(seed))
		if script == nil {
			l.single = newSampler(p.p, l.rng)
			l.meas = newSampler(p.pMeas, l.rng)
			if p.corrPair {
				l.pair = newSampler(p.p, l.rng)
			}
		}
	}
	return st
}

// activate marks the first `shots` shot lanes live: word k holds shots
// 64k..64k+63, the last word possibly partially.
func (st *runState) activate(shots int) {
	for k := 0; k < st.w; k++ {
		lanes := shots - 64*k
		if lanes >= 64 {
			st.active[k] = ^uint64(0)
		} else if lanes > 0 {
			st.active[k] = uint64(1)<<uint(lanes) - 1
		}
	}
}

// more reports whether a window loop that has run w windows runs
// another: a sampled run continues while any lane is live and w is
// under MaxWindows, a scripted run until it has run scriptWindows.
func (p *protocol) more(st *runState, w, scriptWindows int) bool {
	if st.script != nil {
		return w < scriptWindows
	}
	live := uint64(0)
	for _, a := range st.active {
		live |= a
	}
	return live != 0 && w < p.cfg.MaxWindows
}

// diagnose is the noiseless diagnostic-and-probe step that closes window
// w: the diagnostic ESM round and the probe are evaluated for every live
// lane word — as linear functionals of the frame planes when the
// compile-time shortcut holds, by executing the tapes otherwise — and
// only all-clean lanes are probed. A clean lane whose probe differs from
// its expectation counts a logical error, and a lane reaching
// MaxLogicalErrors retires with w windows.
//
// With canon set, sampled runs also canonicalize every clean lane: its
// frame produces no syndrome and its probe effect has just been folded
// into the expectation, so zeroing frame and expectation together is
// unobservable — syndromes were going to read zero either way, and
// future probes of the zeroed frame read the (zero) reference, matching
// the zeroed expectation. This is what makes long quiet stretches
// canonical, and therefore skippable by the Steane window skip.
//
// It returns lane word 0's clean mask and probe word for the traces.
func (p *protocol) diagnose(st *runState, res []ShotResult, w int) (clean0, out0 uint64) {
	W := st.w
	nm := p.esm.NumMeas()
	probeBase := (p.probe.NumMeas() - 1) * W
	if !p.sc.ok {
		p.runTape(st, p.esm, p.refESM, false, st.diag)
		p.runTape(st, p.probe, p.refProbe, false, st.probeOut)
	}
	for k := 0; k < W; k++ {
		if st.script == nil && st.active[k] == 0 {
			continue
		}
		clean := ^uint64(0)
		var out uint64
		if p.sc.ok {
			for i := 0; i < nm; i++ {
				v := p.refESM[i]
				for m := p.sc.diagX[i]; m != 0; m &= m - 1 {
					v ^= st.b.fx[bits.TrailingZeros64(m)*W+k]
				}
				for m := p.sc.diagZ[i]; m != 0; m &= m - 1 {
					v ^= st.b.fz[bits.TrailingZeros64(m)*W+k]
				}
				st.diag[i*W+k] = v
				clean &^= v
			}
			out = p.sc.probeRef
			for m := p.sc.probeX; m != 0; m &= m - 1 {
				out ^= st.b.fx[bits.TrailingZeros64(m)*W+k]
			}
			for m := p.sc.probeZ; m != 0; m &= m - 1 {
				out ^= st.b.fz[bits.TrailingZeros64(m)*W+k]
			}
		} else {
			for i := 0; i < nm; i++ {
				clean &^= st.diag[i*W+k]
			}
			out = st.probeOut[probeBase+k]
		}
		flips := (out ^ st.expected[k]) & clean
		st.expected[k] ^= flips
		for m := flips & st.active[k]; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			r := &res[k*64+j]
			r.LogicalErrors++
			if st.script == nil && r.LogicalErrors >= p.cfg.MaxLogicalErrors {
				st.active[k] &^= uint64(1) << uint(j)
				r.Windows = w
			}
		}
		if p.canon && st.script == nil && clean != 0 {
			for q := 0; q < p.n; q++ {
				st.b.fx[q*W+k] &^= clean
				st.b.fz[q*W+k] &^= clean
			}
			st.expected[k] &^= clean
		}
		if k == 0 {
			clean0, out0 = clean, out
		}
	}
	return clean0, out0
}

// finish completes the statistics of the first `shots` results after a
// run of w windows: lanes still live ran all w windows, and the ops and
// slots issued are p.rounds ESM rounds per window plus the decoder's
// corrections, which a Pauli frame absorbs instead of executing.
func (p *protocol) finish(st *runState, res []ShotResult, shots, w int) {
	for idx := 0; idx < shots; idx++ {
		k, j := idx/64, idx%64
		r := &res[idx]
		if st.active[k]>>uint(j)&1 == 1 {
			r.Windows = w
		}
		r.InjectedErrors = st.inj[idx]
		r.OpsIssued = r.Windows*p.rounds*p.esmOps + r.CorrectionGates
		r.SlotsIssued = r.Windows*p.rounds*p.esmSlots + r.CorrectionSlots
		r.OpsExecuted = r.OpsIssued
		r.SlotsExecuted = r.SlotsIssued
		if p.cfg.WithPauliFrame {
			r.OpsExecuted -= r.CorrectionGates
			r.SlotsExecuted -= r.CorrectionSlots
		}
	}
}
