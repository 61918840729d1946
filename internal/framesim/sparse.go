// The sparse Pauli-frame engine: the SC17 windows protocol with a tape
// walker whose cost scales with the number of *errors*, not with the
// circuit. Below pseudo-threshold almost every shot-word is the identity
// frame almost all the time, so the dense walker burns its cycles
// swapping and XORing zero words. This walker tracks the set of qubits
// whose X/Z planes are nonzero (a uint64 population mask — SC17 has 17
// physical qubits) and
//
//   - inside a dirty tape, walks only the "events": gate ops touching a
//     dirty qubit and error sites where a sampler lands a hit, skipping
//     every noiseless span in between without touching frame state;
//   - falls back to the dense word-parallel kernels for the rest of a
//     tape when the dirty population crosses DenseThreshold, so above
//     threshold the engine degrades to dense speed instead of event-walk
//     overhead.
//
// Everything else is the shared window loop (protocol.go) with the SC17
// Engine's decode. The engine canonicalizes clean lanes, which returns
// quiet batches to the all-zero frame, so the loop skips whole quiet
// windows outright by jumping the gap samplers to the window of the next
// hit.

package framesim

import (
	"fmt"
	"math/bits"
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

// scriptHit is one collected scripted injection of the current tape.
type scriptHit struct {
	op     int32
	a, b   int32
	pa, pb PauliErr
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

// Sparse is the sparse-mode engine: the SC17 Engine — tapes, reference
// outcomes, decoder tables and the shared window loop — with the
// event-driven walker in place of the dense one for the noisy ESM rounds,
// canonicalization of clean lanes and the quiet-window skip on. Like
// Engine, one Sparse may serve many goroutines concurrently.
type Sparse struct {
	Engine
	esmT *sparseTape

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
	if !e.zeroRefs() {
		return nil, fmt.Errorf("framesim: sparse engine needs all-zero ESM and probe reference outcomes")
	}
	s := &Sparse{
		Engine:    *e,
		esmT:      indexTape(e.esm, e.corrPair),
		threshold: cfg.DenseThreshold,
	}
	s.canon = true
	if s.threshold <= 0 {
		s.threshold = defaultDenseThreshold
	}
	return s, nil
}

// RunBatch runs up to 64 Monte-Carlo shots in one word, with the same
// termination and accounting semantics as Engine.RunBatch. The sampled
// results agree with the dense engine in distribution, not bit for bit:
// the walker draws each channel's hits in tape order, while the dense
// engine's fused program draws a slot's single-channel sites before its
// pair sites, and a word's samplers share one RNG. Safe for concurrent
// use on one Sparse.
func (s *Sparse) RunBatch(seed int64, shots int) ([]ShotResult, error) {
	return s.runBatchWide(s, []int64{seed}, shots)
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
	res := make([]ShotResult, 64*len(seeds))
	for k := range seeds {
		st := s.newRunState(seeds[k:k+1], nil)
		s.runWindows(s, st, res[64*k:64*k+64], min(shots-64*k, 64), 0, nil)
	}
	return res[:shots], nil
}

// RunScripted runs exactly `windows` QEC windows of a single shot with
// the Script's errors injected instead of sampled noise. Scripted mode
// disables canonicalization, so the traces (and the frame state after
// every tape) are bit-identical to Engine.RunScripted — the sparse
// differential tests rely on this.
func (s *Sparse) RunScripted(windows int, script Script) ([]WindowTrace, ShotResult, error) {
	return runScripted(&s.protocol, s, windows, script, s.trace)
}

// esmRound runs one noisy ESM round through the event-driven walker. The
// decode, the correction slot and diagnose write the planes without
// tracking the dirty set, so the round first re-derives it.
func (s *Sparse) esmRound(st *runState, out []uint64) {
	st.findDirty()
	s.runTape(st, s.esmT, s.refESM, true, out)
}

// findDirty re-derives the dirty set from the planes.
//
//qa:hotpath
func (st *runState) findDirty() {
	st.dirty = 0
	for q := 0; q < st.b.n; q++ {
		if st.b.fx[q]|st.b.fz[q] != 0 {
			st.dirty |= uint64(1) << uint(q)
		}
	}
}

// refresh re-derives qubit q's dirty bit from its planes.
//
//qa:hotpath
func (st *runState) refresh(q int) {
	bit := uint64(1) << uint(q)
	if st.b.fx[q]|st.b.fz[q] != 0 {
		st.dirty |= bit
	} else {
		st.dirty &^= bit
	}
}

// runTape propagates the frames through one tape, visiting only the
// events that can matter: gate ops on dirty qubits and error sites where
// a gap sampler lands a hit. Noiseless spans in between are skipped
// without touching frame state. When the dirty population reaches the
// density threshold the remainder of the tape drains densely.
//
//qa:hotpath
func (s *Sparse) runTape(st *runState, ti *sparseTape, ref []uint64, noisy bool, out []uint64) {
	copy(out, ref)
	if noisy && st.script != nil {
		//qa:allow hotpath scripted runs are single-shot diagnostics, cold by design
		s.runTapeScripted(st, ti, ref, out)
		return
	}
	if !noisy && st.dirty == 0 {
		return
	}
	l := &st.lanes[0]
	st.sc, st.mc, st.pc = 0, 0, 0
	if noisy && st.dirty == 0 &&
		l.single.siteOfNextHit() >= int64(len(ti.single)) &&
		l.meas.siteOfNextHit() >= int64(len(ti.meas)) &&
		l.pair.siteOfNextHit() >= int64(len(ti.pairs)) {
		// Clean frames, no hit in this tape: consume the trial words and
		// leave the reference outcomes untouched.
		st.skipRest(ti)
		return
	}
	var cur [64]int32
	nops := len(ti.t.ops)
	pos := 0
	for pos < nops {
		next := st.nextGateOp(ti, &cur, pos)
		if noisy {
			if h := l.single.siteOfNextHit() + int64(st.sc); h < int64(len(ti.single)) {
				next = min(next, int(ti.single[h].op))
			}
			if h := l.meas.siteOfNextHit() + int64(st.mc); h < int64(len(ti.meas)) {
				next = min(next, int(ti.meas[h].op))
			}
			if h := l.pair.siteOfNextHit() + int64(st.pc); h < int64(len(ti.pairs)) {
				next = min(next, int(ti.pairs[h].op))
			}
		}
		if next >= nops {
			break
		}
		s.execOp(st, ti, ref, out, next)
		pos = next + 1
		if bits.OnesCount64(st.dirty) >= s.threshold {
			s.drainDense(st, ti, ref, noisy, out, pos)
			return
		}
	}
	if noisy {
		st.skipRest(ti)
	}
}

// nextGateOp returns the first op at or after pos that touches a dirty
// qubit, or the tape length. cur holds each qubit's cursor into
// qubitOps; cursors only move forward within one tape walk.
//
//qa:hotpath
func (st *runState) nextGateOp(ti *sparseTape, cur *[64]int32, pos int) int {
	next := len(ti.t.ops)
	for m := st.dirty; m != 0; m &= m - 1 {
		q := bits.TrailingZeros64(m)
		ops := ti.qubitOps[q]
		c := int(cur[q])
		for c < len(ops) && int(ops[c]) < pos {
			c++
		}
		cur[q] = int32(c)
		if c < len(ops) && int(ops[c]) < next {
			next = int(ops[c])
		}
	}
	return next
}

// skipRest consumes the trial words of every site of the tape the walk
// has not visited.
//
//qa:hotpath
func (st *runState) skipRest(ti *sparseTape) {
	l := &st.lanes[0]
	l.single.skipSites(len(ti.single) - st.sc)
	l.meas.skipSites(len(ti.meas) - st.mc)
	l.pair.skipSites(len(ti.pairs) - st.pc)
}

// execOp executes the single tape op at index i: a gate/prep/meas on a
// dirty qubit, or an error site whose trial word contains a hit.
//
//qa:hotpath
func (s *Sparse) execOp(st *runState, ti *sparseTape, ref []uint64, out []uint64, i int) {
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
	case opErrMeas, opErrSingle:
		s.sampleSite(st, ti, i)
		st.refresh(a)
	case opErrPair:
		s.sampleSite(st, ti, i)
		st.refresh(a)
		st.refresh(int(op.b))
	}
}

// sampleSite consumes the trial word(s) of error op i and applies their
// hits, exactly like the dense engine's per-site executor: one word for
// a pre-measurement flip, a single-channel site or a correlated pair
// site, two single-channel words (operand a's, then b's) for a pair site
// under the uncorrelated model. The channel cursors first align via the
// ord tables, skipping the sites the walk passed over, so the sampled
// hit pattern is identical given the same draw sequence.
//
//qa:hotpath
func (s *Sparse) sampleSite(st *runState, ti *sparseTape, i int) {
	op := &ti.t.ops[i]
	a := int(op.a)
	l := &st.lanes[0]
	switch op.code {
	case opErrMeas:
		k := int(ti.measOrd[i])
		l.meas.skipSites(k - st.mc)
		st.mc = k + 1
		sm := &l.meas
		for sm.next < 64 {
			j := uint(sm.next)
			bit := uint64(1) << j
			st.b.fx[a] ^= bit
			if st.active[0]&bit != 0 {
				st.inj[j]++
			}
			sm.next += sm.gap(l.rng)
		}
		sm.advanceWord()
	case opErrSingle:
		k := int(ti.singleOrd[i])
		l.single.skipSites(k - st.sc)
		st.sc = k + 1
		s.singleWord(st, a)
	case opErrPair:
		if !s.corrPair {
			k := int(ti.singleOrd[i])
			l.single.skipSites(k - st.sc)
			st.sc = k + 2
			s.singleWord(st, a)
			s.singleWord(st, int(op.b))
			return
		}
		k := int(ti.pairOrd[i])
		l.pair.skipSites(k - st.pc)
		st.pc = k + 1
		sm := &l.pair
		for sm.next < 64 {
			s.applyPairHit(st, 0, a, int(op.b), uint(sm.next))
			sm.next += sm.gap(l.rng)
		}
		sm.advanceWord()
	}
}

// singleWord applies the single-channel hits of one site's trial word to
// qubit q.
//
//qa:hotpath
func (s *Sparse) singleWord(st *runState, q int) {
	l := &st.lanes[0]
	sm := &l.single
	for sm.next < 64 {
		s.applySingleHit(st, 0, q, uint(sm.next))
		sm.next += sm.gap(l.rng)
	}
	sm.advanceWord()
}

// drainDense finishes the tape with the dense word kernels from op index
// `from`: gates execute unconditionally, every remaining error site
// consumes its trial word. The channel cursors align via the ord tables,
// so the trial stream is identical to a pure event walk.
//
//qa:hotpath
func (s *Sparse) drainDense(st *runState, ti *sparseTape, ref []uint64, noisy bool, out []uint64, from int) {
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
		case opErrMeas, opErrSingle, opErrPair:
			if noisy {
				s.sampleSite(st, ti, i)
			}
		}
	}
	if noisy {
		st.skipRest(ti)
	}
	st.findDirty()
}

// runTapeScripted executes one noisy tape in scripted mode: the hit list
// is collected by walking the tape's error ops in order (a deterministic
// map *lookup* per site, never an iteration) and then merged with the
// dirty-qubit gate events. Scripted runs are single-shot diagnostics —
// this path is cold and may allocate.
func (s *Sparse) runTapeScripted(st *runState, ti *sparseTape, ref []uint64, out []uint64) {
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
	var cur [64]int32
	nops := len(ti.t.ops)
	hi := 0
	pos := 0
	for pos < nops {
		next := st.nextGateOp(ti, &cur, pos)
		if hi < len(st.hits) && int(st.hits[hi].op) < next {
			next = int(st.hits[hi].op)
		}
		if next >= nops {
			break
		}
		if hi < len(st.hits) && int(st.hits[hi].op) == next {
			h := &st.hits[hi]
			hi++
			s.applyScripted(st, int(h.a), h.pa)
			st.refresh(int(h.a))
			if h.b >= 0 {
				s.applyScripted(st, int(h.b), h.pb)
				st.refresh(int(h.b))
			}
		} else {
			s.execOp(st, ti, ref, out, next)
		}
		pos = next + 1
	}
}
