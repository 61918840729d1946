// The sparse Pauli-frame engine: the SC17 windows protocol with a tape
// walker whose cost scales with the gates and the *errors*, not with the
// error sites. Below pseudo-threshold almost every shot-word is the
// identity frame almost all the time, so the dense walker burns its
// cycles drawing samples over error sites that never fire. This walker
// runs only the tape's frame-changing ops — Cliffords, Prep and Meas, 48
// of the 160 ops of an SC17 ESM round — with single-word kernels, and
// before each of them applies every hit whose site comes earlier in the
// tape. The channel samplers jump straight from hit to hit, so the 112
// error sites of a round cost nothing unless one of them fires, and a
// round that starts from a zero frame with no hit ahead is skipped
// outright.
//
// Everything else is the shared window loop (protocol.go) with the SC17
// Engine's decode. The engine canonicalizes clean lanes, which returns
// quiet batches to the all-zero frame, so the loop skips whole quiet
// windows outright by jumping the gap samplers to the window of the next
// hit.

package framesim

import "fmt"

// gateOp is one frame-changing op of a tape: a Clifford, a Prep or a
// Meas (for which b is the measurement site).
type gateOp struct {
	op   int32 // tape op index
	code opcode
	a, b int32
}

// sparseTape indexes one compiled tape for the gate-list walk.
type sparseTape struct {
	t *Tape

	// gates lists the tape's frame-changing ops in tape order. Error
	// sites and reference-only Paulis are absent. gateFrom[i] is the
	// index of the first gate at or after tape op i.
	gates    []gateOp
	gateFrom []int32

	// Per-channel error sites in tape (= trial stream) order, as tape op
	// indices. With the uncorrelated model a pair op contributes two
	// consecutive entries to single (operand a's site, then b's); with
	// the correlated model one to pairs.
	single, meas, pairs []int32

	// singleOrd/measOrd/pairOrd map an op index to the ordinal of its
	// first site in the channel list (-1 elsewhere), aligning channel
	// cursors when the walk jumps over sites without a hit.
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
		singleOrd: make([]int32, len(t.ops)),
		measOrd:   make([]int32, len(t.ops)),
		pairOrd:   make([]int32, len(t.ops)),
	}
	for i := range ti.singleOrd {
		ti.singleOrd[i], ti.measOrd[i], ti.pairOrd[i] = -1, -1, -1
	}
	for i := range t.ops {
		op := &t.ops[i]
		ti.gateFrom = append(ti.gateFrom, int32(len(ti.gates)))
		switch op.code {
		case opH, opS, opSdg, opCNOT, opCZ, opSWAP, opPrep, opMeas:
			ti.gates = append(ti.gates, gateOp{op: int32(i), code: op.code, a: op.a, b: op.b})
		case opX, opY, opZ:
			// Reference-only: the frame commutes through.
		case opErrSingle:
			ti.singleOrd[i] = int32(len(ti.single))
			ti.single = append(ti.single, int32(i))
		case opErrMeas:
			ti.measOrd[i] = int32(len(ti.meas))
			ti.meas = append(ti.meas, int32(i))
		case opErrPair:
			if corrPair {
				ti.pairOrd[i] = int32(len(ti.pairs))
				ti.pairs = append(ti.pairs, int32(i))
			} else {
				// Uncorrelated model: operand a's site word, then b's.
				ti.singleOrd[i] = int32(len(ti.single))
				ti.single = append(ti.single, int32(i), int32(i))
			}
		}
	}
	return ti
}

// Sparse is the sparse-mode engine: the SC17 Engine — tapes, reference
// outcomes, decoder tables and the shared window loop — with the
// gate-list walker in place of the dense one for the noisy ESM rounds,
// canonicalization of clean lanes and the quiet-window skip on. Like
// Engine, one Sparse may serve many goroutines concurrently.
type Sparse struct {
	Engine
	esmT *sparseTape
}

// NewSparse compiles the sparse engine for one configuration. It demands
// what the skip algebra needs: all-zero reference outcomes on both tapes
// (a zero frame then yields zero syndromes and a zero probe, so an
// all-clean window is pure trial-stream consumption).
func NewSparse(cfg Config) (*Sparse, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if !e.zeroRefs() {
		return nil, fmt.Errorf("framesim: sparse engine needs all-zero ESM and probe reference outcomes")
	}
	s := &Sparse{
		Engine: *e,
		esmT:   indexTape(e.esm, e.corrPair),
	}
	s.canon = true
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
// The gate-list walk runs one word at a time (its per-hit sampling and
// its zero-frame skips are per word), so the wide entry point exists for
// engine-interchangeability: the result slice is bit-identical to
// len(seeds) RunBatch calls — and hence to the dense engine's
// lane-extraction contract for the word seeds.
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

// esmRound runs one noisy ESM round through the gate-list walker.
func (s *Sparse) esmRound(st *runState, out []uint64) {
	s.runTape(st, s.esmT, s.refESM, true, out)
}

// runTape propagates the width-1 frame through one tape with the
// gate-list walk. Its events are the channel samplers' hits in sampled
// mode, the script's injections in scripted mode, and nothing in a
// noiseless run. A sampled tape that starts from a zero frame starts the
// walk at its first hit, because the gates before it act on zeros; with
// no hit ahead it only consumes the tape's trial words.
//
//qa:hotpath
func (s *Sparse) runTape(st *runState, ti *sparseTape, ref []uint64, noisy bool, out []uint64) {
	copy(out, ref)
	if !noisy || st.script != nil {
		st.hits = st.hits[:0]
		if noisy {
			//qa:allow hotpath scripted runs are single-shot diagnostics, cold by design
			s.collectHits(st, ti)
		}
		st.hit = 0
		s.walk(st, ti, ref, out, st.nextScripted(len(ti.t.ops)), 0, false)
		return
	}
	st.sc, st.mc, st.pc = 0, 0, 0
	next, from := st.nextHit(ti), 0
	if st.frameZero() {
		if next == len(ti.t.ops) {
			st.skipRest(ti)
			return
		}
		from = int(ti.gateFrom[next])
	}
	s.walk(st, ti, ref, out, next, from, true)
	st.skipRest(ti)
}

// frameZero reports whether every frame plane is zero.
//
//qa:hotpath
func (st *runState) frameZero() bool {
	fx, fz := st.b.fx, st.b.fz[:len(st.b.fx)]
	var or uint64
	for i, x := range fx {
		or |= x | fz[i]
	}
	return or == 0
}

// walk runs the gate list of ti on the width-1 frame. Before each gate it
// applies every event whose site comes earlier in the tape: the channel
// samplers' hits when sampled, the entries of st.hits otherwise; next is
// the tape op of the first event. A gate on clean qubits only XORs
// zeros, and every channel consumes its trial words in tape order, so
// the walk is bit-identical to executing every op of the tape.
//
//qa:hotpath
func (s *Sparse) walk(st *runState, ti *sparseTape, ref, out []uint64, next, from int, sampled bool) {
	fx, fz := st.b.fx, st.b.fz
	for i := from; i < len(ti.gates); i++ {
		g := &ti.gates[i]
		for next < int(g.op) {
			next = s.event(st, ti, next, sampled)
		}
		a, b := g.a, g.b
		switch g.code {
		case opH:
			fx[a], fz[a] = fz[a], fx[a]
		case opS, opSdg:
			fz[a] ^= fx[a]
		case opCNOT:
			fx[b] ^= fx[a]
			fz[a] ^= fz[b]
		case opCZ:
			fz[b] ^= fx[a]
			fz[a] ^= fx[b]
		case opSWAP:
			fx[a], fx[b] = fx[b], fx[a]
			fz[a], fz[b] = fz[b], fz[a]
		case opPrep:
			fx[a], fz[a] = 0, 0
		case opMeas:
			out[b] = fx[a] ^ ref[b]
		}
	}
	for next < len(ti.t.ops) {
		next = s.event(st, ti, next, sampled)
	}
}

// event applies the event at tape op i and returns the op index of the
// next one, or the tape length when none is left.
//
//qa:hotpath
func (s *Sparse) event(st *runState, ti *sparseTape, i int, sampled bool) int {
	if sampled {
		s.sampleSite(st, ti, i)
		return st.nextHit(ti)
	}
	h := &st.hits[st.hit]
	st.hit++
	s.applyScripted(st, int(h.a), h.pa)
	if h.b >= 0 {
		s.applyScripted(st, int(h.b), h.pb)
	}
	return st.nextScripted(len(ti.t.ops))
}

// nextHit returns the tape op index of the earliest site at which one of
// the channel samplers lands its next hit, or the tape length when no
// channel hits the rest of the tape.
//
//qa:hotpath
func (st *runState) nextHit(ti *sparseTape) int {
	l := &st.lanes[0]
	next := len(ti.t.ops)
	if h := l.single.siteOfNextHit() + int64(st.sc); h < int64(len(ti.single)) {
		next = int(ti.single[h])
	}
	if h := l.meas.siteOfNextHit() + int64(st.mc); h < int64(len(ti.meas)) {
		next = min(next, int(ti.meas[h]))
	}
	if h := l.pair.siteOfNextHit() + int64(st.pc); h < int64(len(ti.pairs)) {
		next = min(next, int(ti.pairs[h]))
	}
	return next
}

// nextScripted returns the tape op index of the next unapplied scripted
// hit, or nops when none is left.
//
//qa:hotpath
func (st *runState) nextScripted(nops int) int {
	if st.hit < len(st.hits) {
		return int(st.hits[st.hit].op)
	}
	return nops
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

// collectHits fills st.hits with the current tape's scripted injections
// by walking its error ops in order (a deterministic map *lookup* per
// site, never an iteration). Scripted runs are single-shot diagnostics —
// this path is cold and may allocate.
func (s *Sparse) collectHits(st *runState, ti *sparseTape) {
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
}
