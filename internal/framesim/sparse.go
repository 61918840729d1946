// The sparse Pauli-frame engine: the SC17 windows protocol with a round
// executor whose cost scales with the *errors*, not with the gates or the
// error sites. Below pseudo-threshold almost every shot-word is the
// identity frame almost all the time, so the dense walker burns its
// cycles drawing samples over error sites that never fire. This engine
// compiles each tape into a round map (roundmap.go): the tape's
// noiseless F₂-linear map on the frame, and each error site's Pauli
// effects carried to the end of the tape. A round copies the reference
// outcomes, applies the map when the incoming frame is nonzero, and then
// XORs in the effect of each hit. The channel samplers jump straight from
// hit to hit, so the 112 error sites of a round cost nothing unless one
// of them fires, and a round that starts from a zero frame with no hit
// ahead only consumes its trial words.
//
// Everything else is the shared window loop (protocol.go) with the SC17
// Engine's decode. The engine canonicalizes clean lanes, which returns
// quiet batches to the all-zero frame, so the loop skips whole quiet
// windows outright by jumping the gap samplers to the window of the next
// hit.

package framesim

import "fmt"

// sparseTape indexes one compiled tape for the sparse engine.
type sparseTape struct {
	t  *Tape
	rm roundMap

	// Per-channel error sites in tape (= trial stream) order, as tape op
	// indices. With the uncorrelated model a pair op contributes two
	// consecutive entries to single (operand a's site, then b's); with
	// the correlated model one to pairs.
	single, meas, pairs []int32

	// singleOrd/measOrd/pairOrd map an op index to the ordinal of its
	// first site in the channel list (-1 elsewhere), aligning channel
	// cursors when a round jumps over sites without a hit.
	singleOrd, measOrd, pairOrd []int32
}

func indexTape(t *Tape, corrPair bool) *sparseTape {
	ti := &sparseTape{
		t:         t,
		rm:        newRoundMap(t),
		singleOrd: make([]int32, len(t.ops)),
		measOrd:   make([]int32, len(t.ops)),
		pairOrd:   make([]int32, len(t.ops)),
	}
	for i := range ti.singleOrd {
		ti.singleOrd[i], ti.measOrd[i], ti.pairOrd[i] = -1, -1, -1
	}
	for i := range t.ops {
		switch t.ops[i].code {
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
// outcomes, decoder tables and the shared window loop — with the round
// map in place of the dense walker for the noisy ESM rounds,
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
	// A round map has at most one term per outcome, one per output row
	// and the empty one, whichever of the protocol's tapes it maps.
	s.termWords = max(e.esm.NumMeas(), e.probe.NumMeas()) + 2*e.n + 1
	return s, nil
}

// RunBatch runs up to 64 Monte-Carlo shots in one word, with the same
// termination and accounting semantics as Engine.RunBatch. The sampled
// results agree with the dense engine in distribution, not bit for bit:
// the sparse engine draws each channel's hits in tape order, while the
// dense engine's fused program draws a slot's single-channel sites
// before its pair sites, and a word's samplers share one RNG. Safe for
// concurrent use on one Sparse.
func (s *Sparse) RunBatch(seed int64, shots int) ([]ShotResult, error) {
	return s.runBatchWide(s, []int64{seed}, shots)
}

// RunBatchWide runs up to 64·len(seeds) shots as len(seeds) independent
// width-1 word runs, one per seed, concatenating the per-word results.
// The round map runs one word at a time (its per-hit sampling and its
// zero-frame skips are per word), so the wide entry point exists for
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

// esmRound runs one noisy ESM round through the round map.
func (s *Sparse) esmRound(st *runState, out []uint64) {
	s.runTape(st, s.esmT, s.refESM, true, out)
}

// runTape propagates the width-1 frame through one tape with its round
// map: the reference outcomes, then the map's image of the incoming
// frame unless that frame is zero, then the effect of every event. The
// events are the channel samplers' hits in sampled mode, the script's
// injections in scripted mode, and nothing in a noiseless run. Because
// propagation is linear, the planes and outcomes afterwards are
// bit-identical to executing every op of the tape, and a sampled tape
// consumes its trial words exactly as that execution would.
//
//qa:hotpath
func (s *Sparse) runTape(st *runState, ti *sparseTape, ref []uint64, noisy bool, out []uint64) {
	copy(out, ref)
	if !st.frameZero() {
		ti.rm.apply(st.b.fx, st.b.fz, out, st.terms)
	}
	if !noisy {
		return
	}
	if st.script != nil {
		//qa:allow hotpath scripted runs are single-shot diagnostics, cold by design
		applyScript(st, ti, out)
		return
	}
	st.sc, st.mc, st.pc = 0, 0, 0
	for next := st.nextHit(ti); next < len(ti.t.ops); next = st.nextHit(ti) {
		s.sampleSite(st, ti, next, out)
	}
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

// skipRest consumes the trial words of every site of the tape that no
// hit has visited.
//
//qa:hotpath
func (st *runState) skipRest(ti *sparseTape) {
	l := &st.lanes[0]
	l.single.skipSites(len(ti.single) - st.sc)
	l.meas.skipSites(len(ti.meas) - st.mc)
	l.pair.skipSites(len(ti.pairs) - st.pc)
}

// sampleSite consumes the trial word(s) of error op i and XORs their
// hits' effects into the planes and out, drawing exactly like the dense
// engine's per-site executor: one word for a pre-measurement flip, a
// single-channel site or a correlated pair site, two single-channel
// words (operand a's, then b's) for a pair site under the uncorrelated
// model. The channel cursors first align via the ord tables, skipping
// the sites no hit landed in, so the sampled hit pattern is identical
// given the same draw sequence. A word's hits on one operand share its
// effects, so each effect is applied once, with the mask of the lanes
// that hit it.
//
//qa:hotpath
func (s *Sparse) sampleSite(st *runState, ti *sparseTape, i int, out []uint64) {
	op := &ti.t.ops[i]
	e := ti.rm.effAt[i]
	fx, fz := st.b.fx, st.b.fz
	l := &st.lanes[0]
	switch op.code {
	case opErrMeas:
		k := int(ti.measOrd[i])
		l.meas.skipSites(k - st.mc)
		st.mc = k + 1
		sm := &l.meas
		var hit uint64
		for sm.next < 64 {
			j := uint(sm.next)
			hit |= 1 << j
			st.inj[j] += int(st.active[0] >> j & 1)
			sm.next += sm.gap(l.rng)
		}
		sm.advanceWord()
		ti.rm.flip(fx, fz, out, e, hit)
	case opErrSingle:
		k := int(ti.singleOrd[i])
		l.single.skipSites(k - st.sc)
		st.sc = k + 1
		xm, zm := s.singleWord(st)
		ti.rm.flipPauli(fx, fz, out, e, xm, zm)
	case opErrPair:
		if !s.corrPair {
			k := int(ti.singleOrd[i])
			l.single.skipSites(k - st.sc)
			st.sc = k + 2
			xa, za := s.singleWord(st)
			xb, zb := s.singleWord(st)
			ti.rm.flipPauli(fx, fz, out, e, xa, za)
			ti.rm.flipPauli(fx, fz, out, e+2, xb, zb)
			return
		}
		k := int(ti.pairOrd[i])
		l.pair.skipSites(k - st.pc)
		st.pc = k + 1
		sm := &l.pair
		var xa, za, xb, zb uint64
		for sm.next < 64 {
			j := uint(sm.next)
			pm := pairMasks[l.rng.Intn(len(pairMasks))]
			xa |= uint64(pm&1) << j
			za |= uint64(pm>>1&1) << j
			xb |= uint64(pm>>2&1) << j
			zb |= uint64(pm>>3) << j
			st.inj[j] += int(st.active[0] >> j & 1)
			sm.next += sm.gap(l.rng)
		}
		sm.advanceWord()
		ti.rm.flipPauli(fx, fz, out, e, xa, za)
		ti.rm.flipPauli(fx, fz, out, e+2, xb, zb)
	}
}

// singleWord draws the single-channel hits of one site's trial word and
// returns the lanes whose Pauli has an X component and those whose Pauli
// has a Z component.
//
//qa:hotpath
func (s *Sparse) singleWord(st *runState) (xm, zm uint64) {
	l := &st.lanes[0]
	sm := &l.single
	for sm.next < 64 {
		j := uint(sm.next)
		xf, zf := singleFlips(l.rng.Uint64(), s.uX, s.uXY)
		xm |= xf << j
		zm |= zf << j
		st.inj[j] += int(st.active[0] >> j & 1)
		sm.next += sm.gap(l.rng)
	}
	sm.advanceWord()
	return xm, zm
}

// applyScript XORs the effects of the current tape's scripted
// injections into the planes and out, site by site in tape order (a
// deterministic map *lookup* per site, never an iteration). Like
// applyScripted it puts a scripted Pauli on every lane of the word and
// counts it once. Scripted runs are single-shot diagnostics — this path
// is cold.
func applyScript(st *runState, ti *sparseTape, out []uint64) {
	for i := range ti.t.ops {
		op := &ti.t.ops[i]
		e := ti.rm.effAt[i]
		switch op.code {
		case opErrSingle:
			if pp, ok := st.script[Site{st.round, int(op.slot), KindSingle, int(op.a), -1}]; ok {
				scriptedEffect(st, ti, out, e, pp[0])
			}
		case opErrMeas:
			if pp, ok := st.script[Site{st.round, int(op.slot), KindMeas, int(op.a), -1}]; ok {
				scriptedEffect(st, ti, out, e, pp[0])
			}
		case opErrPair:
			if pp, ok := st.script[Site{st.round, int(op.slot), KindPair, int(op.a), int(op.b)}]; ok {
				scriptedEffect(st, ti, out, e, pp[0])
				scriptedEffect(st, ti, out, e+2, pp[1])
			}
		}
	}
}

// scriptedEffect applies Pauli p through the effects from e on, on every
// lane, counting one injection unless p is the identity.
func scriptedEffect(st *runState, ti *sparseTape, out []uint64, e int32, p PauliErr) {
	if p == ErrNone {
		return
	}
	// -1 is the all-ones lane mask.
	ti.rm.flipPauli(st.b.fx, st.b.fz, out, e, -uint64(p&ErrX), -uint64((p&ErrZ)>>1))
	st.inj[0]++
}
