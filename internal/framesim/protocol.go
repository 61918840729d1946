// The code-independent half of a compiled windows protocol, shared by the
// SC17 Engine, the Steane engine and the sparse SC17 engine: one compile
// step (noiseless reference run, tapes, stationarity checks,
// noiseless-round shortcut, fused sampling program), the run state's
// lane bookkeeping, and one window loop with its batch and scripted entry
// points, the quiet-window skip, the noiseless diagnostic-and-probe step
// that closes every window, and the shot accounting. Only the decode, the
// per-window traces and the sparse engine's event-driven tape walker stay
// engine-specific (windowCode).

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

	// windowSites counts one window's noisy error sites per channel
	// (single, meas, pair): the trial spans a quiet window consumes.
	windowSites [3]int

	// canon enables frame canonicalization of clean lanes in sampled
	// runs (see diagnose) and, with it, the quiet-window skip (see
	// quietWindows). Only valid with all-zero reference outcomes.
	canon bool
	// noSkip turns the quiet-window skip off. Only tests set it, to run
	// the reference the skip must reproduce bit for bit.
	noSkip bool
}

// windowCode is what an engine adds to the shared window loop.
type windowCode interface {
	// esmRound runs one noisy ESM round for every lane word into out:
	// sampled noise in sampled runs, the script's errors in scripted runs.
	esmRound(st *runState, out []uint64)
	// decode decodes lane word k from the window's ESM outcomes (st.r1,
	// and st.r2 for two-round windows), applies and counts its
	// corrections, and returns the mask of lanes that issued a
	// correction slot. For word 0 it also records lane 0's correction
	// masks in st.corr0.
	decode(st *runState, res []ShotResult, k int) uint64
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
	p.windowSites = [3]int{
		rounds * len(p.esmFused.singleQ),
		rounds * len(p.esmFused.measQ),
		rounds * len(p.esmFused.pairA),
	}
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

// runBatchWide runs a sampled W-wide batch through c (see
// Engine.RunBatchWide).
func (p *protocol) runBatchWide(c windowCode, seeds []int64, shots int) ([]ShotResult, error) {
	if err := checkWide(seeds, shots); err != nil {
		return nil, err
	}
	st := p.newRunState(seeds, nil)
	res := make([]ShotResult, 64*len(seeds))
	p.runWindows(c, st, res, shots, 0, nil)
	return res[:shots], nil
}

// runScripted runs `windows` scripted windows of a single shot through c
// and records trace(st, clean, probe) after every window (see
// Engine.RunScripted).
func runScripted[T any](p *protocol, c windowCode, windows int, script Script,
	trace func(st *runState, clean, out uint64) T) ([]T, ShotResult, error) {
	if windows < 0 {
		return nil, ShotResult{}, fmt.Errorf("framesim: negative window count %d", windows)
	}
	if script == nil {
		script = Script{}
	}
	var seeds [1]int64
	st := p.newRunState(seeds[:], script)
	res := make([]ShotResult, 64)
	traces := make([]T, 0, windows)
	p.runWindows(c, st, res, 1, windows, func(clean, out uint64) {
		traces = append(traces, trace(st, clean, out))
	})
	return traces, res[0], nil
}

// runWindows drives the window loop of every engine. In sampled mode
// (st.script == nil) it runs until every lane of the first `shots`
// terminates; in scripted mode it runs exactly scriptWindows windows on
// lane 0 and hands each window's lane-0 clean bit and probe word to
// record. res must hold 64·w entries; shot 64k+j of lane word k lands in
// res[64k+j].
//
// A window is p.rounds noisy ESM rounds through c's walker, then per live
// lane word c's decode and the correction slot's noise, then the shared
// diagnostic-and-probe step. With canon set, sampled runs first jump
// over quiet windows (quietWindows). A lane word whose 64 shots have all
// terminated goes *dead*: its noise sampling, decode and probe
// bookkeeping are skipped for the remaining windows (only the shared gate
// kernels still touch its plane words, writing values nothing reads).
// Word independence makes that exact — a dead word's statistics are
// already final, and no live word ever observes its RNG stream.
func (p *protocol) runWindows(c windowCode, st *runState, res []ShotResult, shots, scriptWindows int, record func(clean, out uint64)) {
	st.activate(shots)
	outs := [2][]uint64{st.r1, st.r2}
	skip := p.canon && !p.noSkip && st.script == nil
	w := 0
	for p.more(st, w, scriptWindows) {
		if skip {
			if n := p.quietWindows(st, w); n > 0 {
				p.skipWindows(st, n)
				w += int(n)
				continue
			}
		}
		w++
		for r := 0; r < p.rounds; r++ {
			c.esmRound(st, outs[r])
			st.round++
		}
		for k := 0; k < st.w; k++ {
			if st.script == nil && st.active[k] == 0 {
				continue
			}
			// Without a Pauli frame the correction slot executes
			// physically and is itself noisy; with one it is absorbed and
			// injects nothing. Scripted runs inject nothing here either:
			// the QPDO-side InjectLayer skips 1-slot circuits.
			if hasCorr := c.decode(st, res, k); hasCorr != 0 && st.script == nil && !p.cfg.WithPauliFrame {
				p.sampleCorrectionSlot(st, k, hasCorr)
			}
		}
		clean, out := p.diagnose(st, res, w)
		if record != nil {
			record(clean, out)
		}
	}
	p.finish(st, res, shots, w)
}

// quietWindows returns how many windows the batch may skip at window w.
// It is zero unless every live lane word is canonical — zero frame, zero
// carried syndrome, zero expectation — in which case a window without a
// channel hit changes nothing: the frame stays zero, the syndromes read
// the zero reference, the diagnostic round is clean and the probe
// matches the expectation. The gap samplers then bound how many such
// windows lie ahead, capped at MaxWindows.
//
//qa:hotpath
func (p *protocol) quietWindows(st *runState, w int) int64 {
	n := int64(p.cfg.MaxWindows - w)
	W := st.w
	for k := 0; k < W && n > 0; k++ {
		if st.active[k] == 0 {
			continue
		}
		a, b := &st.carryA[k], &st.carryB[k]
		nonzero := st.expected[k] | a[0] | a[1] | a[2] | a[3] | b[0] | b[1] | b[2] | b[3]
		for q := 0; q < p.n && nonzero == 0; q++ {
			nonzero |= st.b.fx[q*W+k] | st.b.fz[q*W+k]
		}
		if nonzero != 0 {
			return 0
		}
		l := &st.lanes[k]
		n = min(n, l.single.windowsBeforeHit(p.windowSites[0]),
			l.meas.windowsBeforeHit(p.windowSites[1]),
			l.pair.windowsBeforeHit(p.windowSites[2]))
	}
	return n
}

// skipWindows advances every live lane word's samplers past n quiet
// windows — bit-identical to running them, since no gap is drawn between
// hits.
//
//qa:hotpath
func (p *protocol) skipWindows(st *runState, n int64) {
	for k := range st.lanes {
		if st.active[k] == 0 {
			continue
		}
		l := &st.lanes[k]
		l.single.skipSites(int(n) * p.windowSites[0])
		l.meas.skipSites(int(n) * p.windowSites[1])
		l.pair.skipSites(int(n) * p.windowSites[2])
	}
	st.round += p.rounds * int(n)
}

// diagnose is the noiseless diagnostic-and-probe step that closes window
// w: the diagnostic ESM round and the probe are evaluated for every live
// lane word — as linear functionals of the frame planes when the
// compile-time shortcut holds, by executing the tapes otherwise — and
// only all-clean lanes are probed. A clean lane whose probe differs from
// its expectation counts a logical error, and a lane reaching
// MaxLogicalErrors retires with w windows.
//
// With canon set, sampled runs also canonicalize every clean lane. Its
// residual frame lies in N(S): it commutes with every stabilizer
// generator, so it never contributes to a future syndrome, and its only
// future effect is a fixed flip of every probe outcome, which has just
// been folded into the expectation. Zeroing frame and expectation
// together is therefore unobservable — syndromes were going to read zero
// either way, and future probes of the zeroed frame read the (zero)
// reference, matching the zeroed expectation. This is what makes long
// quiet stretches canonical, and therefore skippable (quietWindows).
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
