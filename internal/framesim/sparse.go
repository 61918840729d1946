// The sparse Pauli-frame engine: the same windows protocol as Engine,
// but propagation cost scales with the number of *errors*, not with the
// circuit. Below pseudo-threshold almost every shot-word is the identity
// frame almost all the time, so the dense engine burns its cycles
// swapping and XORing zero words. This engine tracks the set of qubits
// whose X/Z planes are nonzero (a uint64 population mask — SC17 has 17
// physical qubits) and
//
//   - skips whole windows outright while every frame is zero, jumping the
//     geometric gap samplers straight to the window containing the next
//     hit (a skipped window is pure trial-stream consumption: reference
//     outcomes are all-zero, the decoder sees nothing, no correction
//     fires);
//   - inside a dirty tape, walks only the "events": gate ops touching a
//     dirty qubit and error sites where a sampler lands a hit, skipping
//     every noiseless span in between without touching frame state;
//   - falls back to the dense word-parallel kernels for the rest of a
//     tape when the dirty population crosses DenseThreshold, so above
//     threshold the engine degrades to dense speed instead of event-walk
//     overhead.
//
// One deliberate semantic delta against the dense engine, unobservable
// in the counted statistics (both engines omit reset gauge
// randomization — the randomized Z component would be a stabilizer of
// the evolving reference and can never flip a measured value; here the
// omission is also what keeps clean frames zero, the whole point of
// sparseness):
//
//   - Frame canonicalization. A lane whose diagnostic round is clean has
//     a residual frame in N(S): it commutes with every stabilizer
//     generator, so it can never contribute to a future syndrome, and its
//     only future effect is a fixed flip of every probe outcome — which
//     the protocol has just absorbed into its `expected` tracker. Zeroing
//     the lane's frame *and* its expected bit together is therefore
//     unobservable, and it is what returns the batch to the all-zero
//     state that whole-window skipping needs.
package framesim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// defaultDenseThreshold is the dirty-qubit population at which a tape
// drains densely when Config.DenseThreshold is unset.
const defaultDenseThreshold = 8

// chanSite is one error site of a channel in trial-stream order.
type chanSite struct {
	op int32 // tape op index
	a  int32 // operand qubit
	b  int32 // second operand (correlated pair sites only, else -1)
}

// sparseTape indexes one compiled tape for event-driven execution.
type sparseTape struct {
	t *Tape

	// Per-channel error sites in tape (= trial stream) order. With the
	// uncorrelated model a pair op contributes two consecutive entries to
	// single (operand a, then b); with the correlated model one to pairs.
	single, meas, pairs []chanSite

	// qubitOps[q] lists (ascending) the op indices that must execute when
	// qubit q's planes are nonzero: Cliffords touching q plus q's
	// Prep/Meas. Error sites and reference-only Paulis are absent.
	qubitOps [][]int32

	// singleOrd/measOrd/pairOrd map an op index to the ordinal of its
	// first site in the channel list (-1 elsewhere), aligning channel
	// cursors when execution jumps into the middle of the tape.
	singleOrd, measOrd, pairOrd []int32
}

func indexTape(t *Tape, corrPair bool) *sparseTape {
	ti := &sparseTape{
		t:         t,
		qubitOps:  make([][]int32, t.n),
		singleOrd: make([]int32, len(t.ops)),
		measOrd:   make([]int32, len(t.ops)),
		pairOrd:   make([]int32, len(t.ops)),
	}
	for i := range ti.singleOrd {
		ti.singleOrd[i], ti.measOrd[i], ti.pairOrd[i] = -1, -1, -1
	}
	addQ := func(q int32, i int) {
		ti.qubitOps[q] = append(ti.qubitOps[q], int32(i))
	}
	for i := range t.ops {
		op := &t.ops[i]
		switch op.code {
		case opH, opS, opSdg, opPrep, opMeas:
			addQ(op.a, i)
		case opCNOT, opCZ, opSWAP:
			addQ(op.a, i)
			addQ(op.b, i)
		case opX, opY, opZ:
			// Reference-only: the frame commutes through.
		case opErrSingle:
			ti.singleOrd[i] = int32(len(ti.single))
			ti.single = append(ti.single, chanSite{op: int32(i), a: op.a, b: -1})
		case opErrMeas:
			ti.measOrd[i] = int32(len(ti.meas))
			ti.meas = append(ti.meas, chanSite{op: int32(i), a: op.a, b: -1})
		case opErrPair:
			if corrPair {
				ti.pairOrd[i] = int32(len(ti.pairs))
				ti.pairs = append(ti.pairs, chanSite{op: int32(i), a: op.a, b: op.b})
			} else {
				// Uncorrelated model: operand a's site word, then b's.
				ti.singleOrd[i] = int32(len(ti.single))
				ti.single = append(ti.single, chanSite{op: int32(i), a: op.a, b: -1})
				ti.single = append(ti.single, chanSite{op: int32(i), a: op.b, b: -1})
			}
		}
	}
	return ti
}

// Sparse is the sparse-mode engine: an immutable compiled protocol (the
// embedded dense Engine provides tapes, reference outcomes and decoder
// tables) plus the per-tape event indexes. Like Engine, one Sparse may
// serve many goroutines concurrently.
type Sparse struct {
	e            *Engine
	esmT, probeT *sparseTape

	// Trials per window and channel: two noisy ESM tapes of 64 trials
	// per site. Zero for empty channels.
	tpwSingle, tpwMeas, tpwPair int64

	threshold int
}

// NewSparse compiles the sparse engine for one configuration. It demands
// what the skip algebra needs: at most 64 qubits (the dirty set is one
// word) and all-zero reference outcomes on both tapes (a zero frame then
// yields zero syndromes and a zero probe, so an all-clean window is pure
// trial-stream consumption).
func NewSparse(cfg Config) (*Sparse, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if e.n > 64 {
		return nil, fmt.Errorf("framesim: sparse engine supports at most 64 qubits, protocol uses %d", e.n)
	}
	for i, v := range e.refESM {
		if v != 0 {
			return nil, fmt.Errorf("framesim: sparse engine needs all-zero ESM reference outcomes, site %d reads %#x", i, v)
		}
	}
	for i, v := range e.refProbe {
		if v != 0 {
			return nil, fmt.Errorf("framesim: sparse engine needs an all-zero probe reference, site %d reads %#x", i, v)
		}
	}
	s := &Sparse{
		e:         e,
		esmT:      indexTape(e.esm, e.corrPair),
		probeT:    indexTape(e.probe, e.corrPair),
		threshold: cfg.DenseThreshold,
	}
	if s.threshold <= 0 {
		s.threshold = defaultDenseThreshold
	}
	s.tpwSingle = 2 * 64 * int64(len(s.esmT.single))
	s.tpwMeas = 2 * 64 * int64(len(s.esmT.meas))
	s.tpwPair = 2 * 64 * int64(len(s.esmT.pairs))
	return s, nil
}

// Engine returns the embedded dense engine (shared tapes, references and
// decoder tables), mainly for the differential tests.
func (s *Sparse) Engine() *Engine { return s.e }

// ESMSites lists the error-injection sites of one ESM round, like
// Engine.ESMSites.
func (s *Sparse) ESMSites() []Site { return s.e.ESMSites() }

// scriptHit is one collected scripted injection of the current tape.
type scriptHit struct {
	op     int32
	a, b   int32
	pa, pb PauliErr
}

// sparseRun is the mutable per-run state of a sparse run.
type sparseRun struct {
	b   *Batch
	rng *rand.Rand

	single, meas, pair sampler

	// dirty has bit q set iff qubit q's planes may be nonzero. It is
	// exact after every executed op (execOp refreshes the touched
	// operands; the dense drain recomputes it).
	dirty uint64

	r1, r2, diag, probeOut []uint64

	script Script
	round  int
	active uint64
	inj    [64]int

	// Walker scratch, reset per tape.
	cur        []int32 // per-qubit cursor into qubitOps
	sc, mc, pc int     // sites consumed per channel this tape

	hits []scriptHit // scripted-mode hit list (cold path)
}

func (s *Sparse) newRun(seed int64, script Script) *sparseRun {
	e := s.e
	st := &sparseRun{
		b:        NewBatch(e.n),
		rng:      rand.New(rand.NewSource(seed)),
		script:   script,
		r1:       make([]uint64, e.esm.NumMeas()),
		r2:       make([]uint64, e.esm.NumMeas()),
		diag:     make([]uint64, e.esm.NumMeas()),
		probeOut: make([]uint64, e.probe.NumMeas()),
		cur:      make([]int32, e.n),
	}
	if script == nil {
		st.single = newSampler(e.p, st.rng)
		st.meas = newSampler(e.pMeas, st.rng)
		if e.corrPair {
			st.pair = newSampler(e.p, st.rng)
		}
	}
	return st
}

// RunBatch runs up to 64 Monte-Carlo shots in one word, with the same
// termination and accounting semantics as Engine.RunBatch. The sampled
// results agree with the dense engine in distribution (frame
// canonicalization makes no bitwise promise — see the package comment).
// Safe for concurrent use on one Sparse.
func (s *Sparse) RunBatch(seed int64, shots int) ([]ShotResult, error) {
	var seeds [1]int64
	seeds[0] = seed
	return s.RunBatchWide(seeds[:], shots)
}

// RunBatchWide runs up to 64·len(seeds) shots as len(seeds) independent
// width-1 word runs, one per seed, concatenating the per-word results.
// The event-driven walker gains nothing from interleaving words (its
// cost is dominated by per-hit work, not the tape walk), so the wide
// entry point exists for engine-interchangeability: the result slice is
// bit-identical to len(seeds) RunBatch calls — and hence to the dense
// engine's lane-extraction contract for the word seeds.
func (s *Sparse) RunBatchWide(seeds []int64, shots int) ([]ShotResult, error) {
	if err := checkWide(seeds, shots); err != nil {
		return nil, err
	}
	res := make([]ShotResult, shots)
	for k, seed := range seeds {
		wordShots := shots - 64*k
		if wordShots > 64 {
			wordShots = 64
		}
		st := s.newRun(seed, nil)
		var sub [64]ShotResult
		s.runWindows(st, &sub, wordShots, 0, nil)
		copy(res[64*k:], sub[:wordShots])
	}
	return res, nil
}

// RunScripted runs exactly `windows` QEC windows of a single shot with
// the Script's errors injected instead of sampled noise. Scripted mode
// disables canonicalization, so the traces (and the frame state after
// every tape) are bit-identical to Engine.RunScripted — the sparse
// differential tests rely on this.
func (s *Sparse) RunScripted(windows int, script Script) ([]WindowTrace, ShotResult, error) {
	if windows < 0 {
		return nil, ShotResult{}, fmt.Errorf("framesim: negative window count %d", windows)
	}
	if script == nil {
		script = Script{}
	}
	st := s.newRun(0, script)
	var res [64]ShotResult
	traces := make([]WindowTrace, 0, windows)
	s.runWindows(st, &res, 1, windows, &traces)
	return traces, res[0], nil
}

// windowsUntilHit returns how many whole windows fit before any
// channel's next hit lands.
//
//qa:hotpath
func (s *Sparse) windowsUntilHit(st *sparseRun) int64 {
	w := disabledNext
	if st.single.p > 0 && s.tpwSingle > 0 {
		if v := st.single.next / s.tpwSingle; v < w {
			w = v
		}
	}
	if st.meas.p > 0 && s.tpwMeas > 0 {
		if v := st.meas.next / s.tpwMeas; v < w {
			w = v
		}
	}
	if st.pair.p > 0 && s.tpwPair > 0 {
		if v := st.pair.next / s.tpwPair; v < w {
			w = v
		}
	}
	return w
}

// carryZero reports whether a decode carry holds no syndrome bit in any
// lane.
//
//qa:hotpath
func carryZero(c *[4]uint64) bool {
	return c[0]|c[1]|c[2]|c[3] == 0
}

// runWindows drives the sparse window loop; the decode/correction/probe
// plumbing deliberately mirrors Engine.runWindows so the two stay
// comparable line by line.
func (s *Sparse) runWindows(st *sparseRun, res *[64]ShotResult, shots, scriptWindows int, traces *[]WindowTrace) {
	e := s.e
	active := ^uint64(0)
	if shots < 64 {
		active = uint64(1)<<uint(shots) - 1
	}
	var carryA, carryB, decA, decB [4]uint64
	var a1, b1, a2, b2 [4]uint64
	var corrMask [64]uint16
	var expected uint64
	w := 0
	for {
		if st.script == nil {
			if active == 0 || w >= e.cfg.MaxWindows {
				break
			}
			// Whole-window skip: with every frame zero, no decode carry
			// and no pending probe flip, a window is pure trial-stream
			// consumption — jump straight to the window with the next hit.
			if st.dirty == 0 && expected == 0 && carryZero(&carryA) && carryZero(&carryB) {
				skip := s.windowsUntilHit(st)
				if max := int64(e.cfg.MaxWindows - w); skip > max {
					skip = max
				}
				if skip > 0 {
					st.single.skipSites(int(skip) * 2 * len(s.esmT.single))
					st.meas.skipSites(int(skip) * 2 * len(s.esmT.meas))
					st.pair.skipSites(int(skip) * 2 * len(s.esmT.pairs))
					w += int(skip)
					st.round += 2 * int(skip)
					continue
				}
			}
		} else if w >= scriptWindows {
			break
		}
		w++
		st.active = active

		// Two noisy ESM rounds.
		s.runTape(st, s.esmT, e.refESM, true, st.r1)
		st.round++
		s.runTape(st, s.esmT, e.refESM, true, st.r2)
		st.round++
		gather(e, st.r1, 0, 1, &a1, &b1)
		gather(e, st.r2, 0, 1, &a2, &b2)

		nzA := e.decodeGroup(&a1, &a2, &carryA, &decA)
		nzB := e.decodeGroup(&b1, &b2, &carryB, &decB)
		var trA, trB uint16
		for m := nzA; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			cm := uint16(e.lutA.CorrectionMask(synAt(&decA, j)))
			corrMask[j] |= cm
			if j == 0 {
				trA = cm
			}
			applyCorr(st.b, cm, 0, uint64(1)<<uint(j), e.gateAIsZ)
			// Corrections land on data qubits d = mask bit d (identity
			// layout, asserted by New).
			st.dirty |= uint64(cm)
		}
		for m := nzB; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			cm := uint16(e.lutB.CorrectionMask(synAt(&decB, j)))
			corrMask[j] |= cm
			if j == 0 {
				trB = cm
			}
			applyCorr(st.b, cm, 0, uint64(1)<<uint(j), !e.gateAIsZ)
			st.dirty |= uint64(cm)
		}
		var hasCorr uint64
		for m := nzA | nzB; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if cm := corrMask[j]; cm != 0 {
				hasCorr |= uint64(1) << uint(j)
				if active>>uint(j)&1 == 1 {
					res[j].CorrectionGates += bits.OnesCount16(cm)
					res[j].CorrectionSlots++
				}
				corrMask[j] = 0
			}
		}
		if hasCorr != 0 && st.script == nil && !e.cfg.WithPauliFrame {
			s.sampleCorrectionSlot(st, hasCorr)
		}
		// A correction can cancel the very error it corrects: planes may
		// be zero again. Re-derive the dirty set exactly so the skip path
		// reopens as early as possible.
		s.refreshAll(st)

		// Noiseless diagnostic round; only all-clean lanes are probed.
		s.runTape(st, s.esmT, e.refESM, false, st.diag)
		clean := ^uint64(0)
		for _, v := range st.diag {
			clean &^= v
		}
		s.runTape(st, s.probeT, e.refProbe, false, st.probeOut)
		out := st.probeOut[len(st.probeOut)-1]
		flips := (out ^ expected) & clean
		expected ^= flips
		for m := flips & active; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			res[j].LogicalErrors++
			if st.script == nil && res[j].LogicalErrors >= e.cfg.MaxLogicalErrors {
				active &^= uint64(1) << uint(j)
				res[j].Windows = w
			}
		}

		if st.script == nil && clean != 0 && st.dirty != 0 {
			// Canonicalize clean lanes (see the package comment): their
			// residual frames are in N(S) and their fixed probe flip was
			// just absorbed into expected, so zeroing both is
			// unobservable and restores the skippable all-zero state.
			for m := st.dirty; m != 0; m &= m - 1 {
				q := bits.TrailingZeros64(m)
				st.b.fx[q] &^= clean
				st.b.fz[q] &^= clean
				if st.b.fx[q]|st.b.fz[q] == 0 {
					st.dirty &^= uint64(1) << uint(q)
				}
			}
			expected &^= clean
		}

		if traces != nil {
			var da, db [4]uint64
			gather(e, st.diag, 0, 1, &da, &db)
			tr := WindowTrace{
				R1A: synAt(&a1, 0), R1B: synAt(&b1, 0),
				R2A: synAt(&a2, 0), R2B: synAt(&b2, 0),
				CorrA: trA, CorrB: trB,
				DiagA: synAt(&da, 0), DiagB: synAt(&db, 0),
				Clean: clean&1 == 1,
				Probe: -1,
			}
			if tr.Clean {
				tr.Probe = int(out & 1)
			}
			*traces = append(*traces, tr)
		}
	}
	for j := 0; j < shots; j++ {
		r := &res[j]
		if active>>uint(j)&1 == 1 {
			r.Windows = w
		}
		r.InjectedErrors = st.inj[j]
		r.OpsIssued = r.Windows*2*e.esmOps + r.CorrectionGates
		r.SlotsIssued = r.Windows*2*e.esmSlots + r.CorrectionSlots
		r.OpsExecuted = r.OpsIssued
		r.SlotsExecuted = r.SlotsIssued
		if e.cfg.WithPauliFrame {
			r.OpsExecuted -= r.CorrectionGates
			r.SlotsExecuted -= r.CorrectionSlots
		}
	}
}

// refresh re-derives qubit q's dirty bit from its planes.
//
//qa:hotpath
func (st *sparseRun) refresh(q int) {
	bit := uint64(1) << uint(q)
	if st.b.fx[q]|st.b.fz[q] != 0 {
		st.dirty |= bit
	} else {
		st.dirty &^= bit
	}
}

// refreshAll re-derives the dirty bits of every currently dirty qubit
// (clean qubits cannot have become dirty without an executed op, which
// refreshes them itself).
//
//qa:hotpath
func (s *Sparse) refreshAll(st *sparseRun) {
	for m := st.dirty; m != 0; m &= m - 1 {
		q := bits.TrailingZeros64(m)
		if st.b.fx[q]|st.b.fz[q] == 0 {
			st.dirty &^= uint64(1) << uint(q)
		}
	}
}

// runTape propagates the frames through one tape, visiting only the
// events that can matter: gate ops on dirty qubits and error sites where
// a gap sampler lands a hit. Noiseless spans in between are skipped
// without touching frame state. When the dirty population reaches the
// density threshold the remainder of the tape drains densely.
//
//qa:hotpath
func (s *Sparse) runTape(st *sparseRun, ti *sparseTape, ref []uint64, noisy bool, out []uint64) {
	copy(out, ref)
	if st.script != nil {
		if noisy {
			//qa:allow hotpath scripted runs are single-shot diagnostics, cold by design
			s.runTapeScripted(st, ti, ref, out)
			return
		}
		noisy = false
	}
	if !noisy && st.dirty == 0 {
		return
	}
	st.sc, st.mc, st.pc = 0, 0, 0
	if noisy && st.dirty == 0 &&
		st.single.siteOfNextHit() >= int64(len(ti.single)) &&
		st.meas.siteOfNextHit() >= int64(len(ti.meas)) &&
		st.pair.siteOfNextHit() >= int64(len(ti.pairs)) {
		// Clean frames, no hit in this tape: consume the trial words and
		// leave the reference outcomes untouched.
		st.single.skipSites(len(ti.single))
		st.meas.skipSites(len(ti.meas))
		st.pair.skipSites(len(ti.pairs))
		return
	}
	for q := range st.cur {
		st.cur[q] = 0
	}
	nops := len(ti.t.ops)
	pos := 0
	for pos < nops {
		next := nops
		for m := st.dirty; m != 0; m &= m - 1 {
			q := bits.TrailingZeros64(m)
			ops := ti.qubitOps[q]
			c := int(st.cur[q])
			for c < len(ops) && int(ops[c]) < pos {
				c++
			}
			st.cur[q] = int32(c)
			if c < len(ops) && int(ops[c]) < next {
				next = int(ops[c])
			}
		}
		if noisy {
			if h := st.single.siteOfNextHit() + int64(st.sc); h < int64(len(ti.single)) {
				if op := int(ti.single[h].op); op < next {
					next = op
				}
			}
			if h := st.meas.siteOfNextHit() + int64(st.mc); h < int64(len(ti.meas)) {
				if op := int(ti.meas[h].op); op < next {
					next = op
				}
			}
			if h := st.pair.siteOfNextHit() + int64(st.pc); h < int64(len(ti.pairs)) {
				if op := int(ti.pairs[h].op); op < next {
					next = op
				}
			}
		}
		if next >= nops {
			break
		}
		s.execOp(st, ti, ref, noisy, out, next)
		pos = next + 1
		if bits.OnesCount64(st.dirty) >= s.threshold {
			s.drainDense(st, ti, ref, noisy, out, pos)
			return
		}
	}
	if noisy {
		st.single.skipSites(len(ti.single) - st.sc)
		st.meas.skipSites(len(ti.meas) - st.mc)
		st.pair.skipSites(len(ti.pairs) - st.pc)
	}
}

// execOp executes the single tape op at index i: a gate/prep/meas on a
// dirty qubit, or an error site whose trial word contains a hit. Error
// sites consume their whole trial word(s) exactly like the dense engine,
// so the sampled hit pattern is identical given the same draw sequence.
//
//qa:hotpath
func (s *Sparse) execOp(st *sparseRun, ti *sparseTape, ref []uint64, noisy bool, out []uint64, i int) {
	b := st.b
	op := &ti.t.ops[i]
	a := int(op.a)
	switch op.code {
	case opH:
		b.H(a)
	case opS, opSdg:
		b.S(a)
	case opCNOT:
		b.CNOT(a, int(op.b))
		st.refresh(a)
		st.refresh(int(op.b))
	case opCZ:
		b.CZ(a, int(op.b))
		st.refresh(a)
		st.refresh(int(op.b))
	case opSWAP:
		b.SWAP(a, int(op.b))
		st.refresh(a)
		st.refresh(int(op.b))
	case opX, opY, opZ:
		// Reference-only: never an event (absent from qubitOps).
	case opPrep:
		b.fx[a] = 0
		b.fz[a] = 0
		st.dirty &^= uint64(1) << uint(a)
	case opMeas:
		out[op.b] = b.fx[a] ^ ref[op.b]
	case opErrMeas:
		k := int(ti.measOrd[i])
		st.meas.skipSites(k - st.mc)
		st.mc = k + 1
		sm := &st.meas
		for sm.next < 64 {
			j := uint(sm.next)
			bit := uint64(1) << j
			b.fx[a] ^= bit
			if st.active&bit != 0 {
				st.inj[j]++
			}
			sm.next += sm.gap(st.rng)
		}
		sm.advanceWord()
		st.refresh(a)
	case opErrSingle:
		k := int(ti.singleOrd[i])
		st.single.skipSites(k - st.sc)
		st.sc = k + 1
		sm := &st.single
		for sm.next < 64 {
			s.hitSingle(st, a, uint(sm.next))
			sm.next += sm.gap(st.rng)
		}
		sm.advanceWord()
		st.refresh(a)
	case opErrPair:
		qb := int(op.b)
		if s.e.corrPair {
			k := int(ti.pairOrd[i])
			st.pair.skipSites(k - st.pc)
			st.pc = k + 1
			sm := &st.pair
			for sm.next < 64 {
				s.hitPair(st, a, qb, uint(sm.next))
				sm.next += sm.gap(st.rng)
			}
			sm.advanceWord()
		} else {
			// Uncorrelated model: operand a's site word, then b's. The
			// hit that triggered this event may live in either word.
			k := int(ti.singleOrd[i])
			st.single.skipSites(k - st.sc)
			st.sc = k + 2
			sm := &st.single
			for sm.next < 64 {
				s.hitSingle(st, a, uint(sm.next))
				sm.next += sm.gap(st.rng)
			}
			sm.advanceWord()
			for sm.next < 64 {
				s.hitSingle(st, qb, uint(sm.next))
				sm.next += sm.gap(st.rng)
			}
			sm.advanceWord()
		}
		st.refresh(a)
		st.refresh(qb)
	}
}

// hitSingle applies one single-qubit channel hit on lane j, drawing the
// conditional Pauli kind exactly like the dense engine (one raw RNG word
// against the precomputed thresholds).
//
//qa:hotpath
func (s *Sparse) hitSingle(st *sparseRun, q int, j uint) {
	bit := uint64(1) << j
	v := st.rng.Uint64()
	switch {
	case v < s.e.uX:
		st.b.fx[q] ^= bit
	case v < s.e.uXY:
		st.b.fx[q] ^= bit
		st.b.fz[q] ^= bit
	default:
		st.b.fz[q] ^= bit
	}
	if st.active&bit != 0 {
		st.inj[j]++
	}
}

// hitPair applies one correlated two-qubit hit on lane j.
//
//qa:hotpath
func (s *Sparse) hitPair(st *sparseRun, qa, qb int, j uint) {
	bit := uint64(1) << j
	pr := pairTable[st.rng.Intn(len(pairTable))]
	if pr[0]&ErrX != 0 {
		st.b.fx[qa] ^= bit
	}
	if pr[0]&ErrZ != 0 {
		st.b.fz[qa] ^= bit
	}
	if pr[1]&ErrX != 0 {
		st.b.fx[qb] ^= bit
	}
	if pr[1]&ErrZ != 0 {
		st.b.fz[qb] ^= bit
	}
	if st.active&bit != 0 {
		st.inj[j]++
	}
}

// drainDense finishes the tape with the dense word kernels from op index
// `from`: gates execute unconditionally, every remaining error site
// consumes its trial word. The channel cursors align via the ord tables,
// so the trial stream is identical to a pure event walk.
//
//qa:hotpath
func (s *Sparse) drainDense(st *sparseRun, ti *sparseTape, ref []uint64, noisy bool, out []uint64, from int) {
	b := st.b
	ops := ti.t.ops
	for i := from; i < len(ops); i++ {
		op := &ops[i]
		a := int(op.a)
		switch op.code {
		case opH:
			b.H(a)
		case opS, opSdg:
			b.S(a)
		case opCNOT:
			b.CNOT(a, int(op.b))
		case opCZ:
			b.CZ(a, int(op.b))
		case opSWAP:
			b.SWAP(a, int(op.b))
		case opX, opY, opZ:
		case opPrep:
			b.fx[a] = 0
			b.fz[a] = 0
		case opMeas:
			out[op.b] = b.fx[a] ^ ref[op.b]
		case opErrMeas:
			if !noisy {
				continue
			}
			k := int(ti.measOrd[i])
			st.meas.skipSites(k - st.mc)
			st.mc = k + 1
			sm := &st.meas
			for sm.next < 64 {
				j := uint(sm.next)
				bit := uint64(1) << j
				b.fx[a] ^= bit
				if st.active&bit != 0 {
					st.inj[j]++
				}
				sm.next += sm.gap(st.rng)
			}
			sm.advanceWord()
		case opErrSingle:
			if !noisy {
				continue
			}
			k := int(ti.singleOrd[i])
			st.single.skipSites(k - st.sc)
			st.sc = k + 1
			sm := &st.single
			for sm.next < 64 {
				s.hitSingle(st, a, uint(sm.next))
				sm.next += sm.gap(st.rng)
			}
			sm.advanceWord()
		case opErrPair:
			if !noisy {
				continue
			}
			qb := int(op.b)
			if s.e.corrPair {
				k := int(ti.pairOrd[i])
				st.pair.skipSites(k - st.pc)
				st.pc = k + 1
				sm := &st.pair
				for sm.next < 64 {
					s.hitPair(st, a, qb, uint(sm.next))
					sm.next += sm.gap(st.rng)
				}
				sm.advanceWord()
			} else {
				k := int(ti.singleOrd[i])
				st.single.skipSites(k - st.sc)
				st.sc = k + 2
				sm := &st.single
				for sm.next < 64 {
					s.hitSingle(st, a, uint(sm.next))
					sm.next += sm.gap(st.rng)
				}
				sm.advanceWord()
				for sm.next < 64 {
					s.hitSingle(st, qb, uint(sm.next))
					sm.next += sm.gap(st.rng)
				}
				sm.advanceWord()
			}
		}
	}
	if noisy {
		st.single.skipSites(len(ti.single) - st.sc)
		st.meas.skipSites(len(ti.meas) - st.mc)
		st.pair.skipSites(len(ti.pairs) - st.pc)
	}
	st.dirty = 0
	for q := 0; q < b.n; q++ {
		if b.fx[q]|b.fz[q] != 0 {
			st.dirty |= uint64(1) << uint(q)
		}
	}
}

// sampleCorrectionSlot mirrors Engine.sampleCorrectionSlot — one
// single-channel site per qubit, masked to the lanes that issued a
// correction — skipping hit-free words without touching state.
//
//qa:hotpath
func (s *Sparse) sampleCorrectionSlot(st *sparseRun, hasCorr uint64) {
	sm := &st.single
	for q := 0; q < s.e.n; q++ {
		if sm.next < 64 {
			for sm.next < 64 {
				j := uint(sm.next)
				if hasCorr>>j&1 == 1 {
					s.hitSingle(st, q, j)
				}
				sm.next += sm.gap(st.rng)
			}
			st.refresh(q)
		}
		sm.advanceWord()
	}
}

// runTapeScripted executes one noisy tape in scripted mode: the hit list
// is collected by walking the tape's error ops in order (a deterministic
// map *lookup* per site, never an iteration) and then merged with the
// dirty-qubit gate events. Scripted runs are single-shot diagnostics —
// this path is cold and may allocate.
func (s *Sparse) runTapeScripted(st *sparseRun, ti *sparseTape, ref []uint64, out []uint64) {
	st.hits = st.hits[:0]
	for i := range ti.t.ops {
		op := &ti.t.ops[i]
		switch op.code {
		case opErrSingle:
			if pp, ok := st.script[Site{st.round, int(op.slot), KindSingle, int(op.a), -1}]; ok && pp[0] != ErrNone {
				st.hits = append(st.hits, scriptHit{op: int32(i), a: op.a, b: -1, pa: pp[0]})
			}
		case opErrMeas:
			if pp, ok := st.script[Site{st.round, int(op.slot), KindMeas, int(op.a), -1}]; ok && pp[0] != ErrNone {
				st.hits = append(st.hits, scriptHit{op: int32(i), a: op.a, b: -1, pa: pp[0]})
			}
		case opErrPair:
			if pp, ok := st.script[Site{st.round, int(op.slot), KindPair, int(op.a), int(op.b)}]; ok && pp[0]|pp[1] != ErrNone {
				st.hits = append(st.hits, scriptHit{op: int32(i), a: op.a, b: op.b, pa: pp[0], pb: pp[1]})
			}
		}
	}
	for q := range st.cur {
		st.cur[q] = 0
	}
	nops := len(ti.t.ops)
	hi := 0
	pos := 0
	for pos < nops {
		next := nops
		for m := st.dirty; m != 0; m &= m - 1 {
			q := bits.TrailingZeros64(m)
			ops := ti.qubitOps[q]
			c := int(st.cur[q])
			for c < len(ops) && int(ops[c]) < pos {
				c++
			}
			st.cur[q] = int32(c)
			if c < len(ops) && int(ops[c]) < next {
				next = int(ops[c])
			}
		}
		if hi < len(st.hits) && int(st.hits[hi].op) < next {
			next = int(st.hits[hi].op)
		}
		if next >= nops {
			break
		}
		if hi < len(st.hits) && int(st.hits[hi].op) == next {
			h := &st.hits[hi]
			hi++
			s.applyScriptedHit(st, int(h.a), h.pa)
			if h.b >= 0 {
				s.applyScriptedHit(st, int(h.b), h.pb)
			}
		} else {
			s.execOp(st, ti, ref, false, out, next)
		}
		pos = next + 1
	}
}

// applyScriptedHit injects a scripted Pauli on every lane, mirroring
// Engine.applyScripted, and refreshes the qubit's dirty bit.
func (s *Sparse) applyScriptedHit(st *sparseRun, q int, p PauliErr) {
	if p == ErrNone {
		return
	}
	if p&ErrX != 0 {
		st.b.fx[q] ^= ^uint64(0)
	}
	if p&ErrZ != 0 {
		st.b.fz[q] ^= ^uint64(0)
	}
	st.inj[0]++
	st.refresh(q)
}
