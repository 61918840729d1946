// Package framesim implements the bit-sliced Pauli-frame Monte-Carlo
// engine for the LER windows protocol (thesis Listing 5.7).
//
// The QPDO stack (ninja star → counters → [pauli frame] → error layer →
// CHP tableau) simulates one noisy trajectory at a time; every shot pays
// the full tableau cost. This engine exploits that the protocol is a
// Clifford circuit with Pauli noise: a noisy shot equals the noiseless
// reference run plus a Pauli error frame conjugated through the circuit.
// The reference is computed once on the CHP tableau; after that each shot
// is just an X/Z frame bit-pair per qubit, and 64 shots pack into one
// uint64 word per plane — the conjugation rules of thesis Tables 3.2–3.5
// become word ops (exactly core.BitFrame, sliced across shots instead of
// qubits). A batch may carry W ∈ {1..8} such words per plane (64·W shots
// per propagate pass); every 64-shot word is an independent run with its
// own seed, RNG and channel samplers, so lane word k of a W-wide run is
// bit-identical to a width-1 run from the same seed.
//
// Exactness rests on the protocol's structure: after the noiseless
// initialization the state is the unique all-(+1)-stabilizer logical
// state, so every window-phase measurement (ESM ancillas, diagnostics,
// probe) is deterministic on the reference, and a shot's outcome is the
// reference value XOR the frame's X bit. Reset gauge randomization (a
// fresh random Z frame bit after Prep/Measure) would keep the frame
// distribution faithful for arbitrary circuits; for this protocol the
// randomized component is always a Z on a fresh eigenstate — a
// stabilizer of the evolving reference — and provably never flips a
// measured value, so the engine omits it (the sparse engine pioneered
// the omission; it is what keeps clean frames zero there). The syndrome
// stream is therefore a bit-exact function of the injected error
// pattern — the property the differential test checks against the QPDO
// stack.
//
// The decoder windows run word-parallel too: syndrome bit-planes per
// hardware ancilla group, the three-round agreement/intersection rules as
// boolean word ops, and a scalar LUT lookup only for the (rare) shots
// whose decoded syndrome is nonzero. The noiseless diagnostic round and
// probe are not even executed as tapes: at compile time the engine
// derives each noiseless outcome as an F₂ linear functional of the
// current frame planes (and symbolically verifies the substitution is
// sound — see buildShortcut), so a window's clean-check and probe cost a
// handful of XORs per lane word instead of two full tape walks.
package framesim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/chp"
	"repro/internal/circuit"
	"repro/internal/decoder"
	"repro/internal/layers"
	"repro/internal/surface"
)

// MaxLanes is the widest supported batch: 8 words = 512 shots per
// propagate pass. Wider batches stop paying for themselves — the
// per-shot RNG and decode work is already width-independent, and the
// amortizable tape-walk overhead is down to 1/8th.
const MaxLanes = 8

// Observable selects the monitored logical error, mirroring the
// experiment harness: logical X errors are detected on |0⟩_L with the
// Z_L probe, logical Z errors on |+⟩_L with the X_L probe.
type Observable int

// Observables.
const (
	ObserveX Observable = iota
	ObserveZ
)

// Config parameterizes a frame engine.
type Config struct {
	// Observable selects the monitored logical error.
	Observable Observable
	// WithPauliFrame models the Pauli-frame stack variant: corrections
	// are absorbed (no physical correction slot, hence no correction-slot
	// error opportunities and no executed correction ops).
	WithPauliFrame bool
	// MaxLogicalErrors terminates a shot (default 50, like the thesis).
	MaxLogicalErrors int
	// MaxWindows caps every shot's run length (default 2,000,000).
	MaxWindows int
	// InitRounds is the number of ESM rounds during noiseless
	// initialization (default 3).
	InitRounds int
	// DecoderRule selects the windowed decoding rule.
	DecoderRule decoder.Rule
	// Model is the Pauli error channel.
	Model layers.Model
	// RefSeed seeds the reference tableau run. Every protocol measurement
	// is required to be deterministic (New errors out otherwise), so the
	// results do not depend on this value.
	RefSeed int64
	// DenseThreshold is the dirty-qubit population at which the sparse
	// engine (NewSparse) abandons event-driven propagation for the rest
	// of the current tape and drains it with the dense word kernels
	// (default 8). The dense engine ignores it.
	DenseThreshold int
}

func (c Config) withDefaults() Config {
	if c.MaxLogicalErrors <= 0 {
		c.MaxLogicalErrors = 50
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 2_000_000
	}
	if c.InitRounds <= 0 {
		c.InitRounds = 3
	}
	return c
}

// ShotResult reports one Monte-Carlo shot, with the same accounting
// semantics as the stack harness's LERResult.
type ShotResult struct {
	// Windows and LogicalErrors are R and m of thesis Eq. 5.1.
	Windows       int
	LogicalErrors int
	// CorrectionGates / CorrectionSlots count what the decoder issued.
	CorrectionGates int
	CorrectionSlots int
	// OpsIssued / SlotsIssued count the stream entering the Pauli-frame
	// position; OpsExecuted / SlotsExecuted what would leave it.
	OpsIssued     int
	SlotsIssued   int
	OpsExecuted   int
	SlotsExecuted int
	// InjectedErrors counts error events applied while the shot was live.
	InjectedErrors int
}

// WindowTrace records what one QEC window did for shot lane 0; the
// differential test compares traces against the manually driven stack.
type WindowTrace struct {
	// R1A..R2B are the raw syndromes of the two ESM rounds per hardware
	// ancilla group.
	R1A, R1B, R2A, R2B decoder.Syndrome
	// CorrA / CorrB are the decoded correction masks (bit d = data qubit
	// d) per group.
	CorrA, CorrB uint16
	// DiagA / DiagB are the noiseless diagnostic round syndromes.
	DiagA, DiagB decoder.Syndrome
	// Clean reports whether the diagnostic round was all-zero (the shot
	// was probed).
	Clean bool
	// Probe is the probe outcome, or -1 when the shot was not probed.
	Probe int
}

// Engine is an immutable compiled instance of the windows protocol for
// one configuration: instruction tapes, reference outcomes, decoder
// tables and channel constants. RunBatch carries all mutable state in a
// private runState, so one Engine may serve many goroutines concurrently.
type Engine struct {
	protocol

	// groupOfSite/bitOfSite map ESM measurement sites to hardware ancilla
	// groups (0 = A, ancillas 9..12; 1 = B) and syndrome bits.
	groupOfSite, bitOfSite []uint8

	lutA, lutB *decoder.LUT
	// gateAIsZ: group-A syndromes decode to Z corrections (normal
	// orientation); swapped after the logical Hadamard of ObserveZ.
	gateAIsZ     bool
	intersection bool
}

// tapeExec is the executor core shared by the protocol front-ends (the
// SC17 Engine, the Steane engine and the sparse engine's walker): the
// physical qubit count plus the cached channel constants every tape walk
// and hit sampler needs. It carries no mutable run state — that lives in
// runState — so front-ends embedding it stay safe for concurrent runs.
type tapeExec struct {
	n int
	chanParams
}

// chanParams caches one error model's channel constants; the tape
// executor shares them between the front-ends. uX/uXY are the
// conditional Pauli-kind thresholds (PX/P, (PX+PY)/P) scaled to the full
// uint64 range, so a hit's kind is one integer compare against a raw RNG
// word instead of a float multiply chain.
type chanParams struct {
	p, px, pxy, pMeas float64
	uX, uXY           uint64
	corrPair          bool
}

func newChanParams(m layers.Model) chanParams {
	c := chanParams{
		p:        m.TotalSingle(),
		px:       m.PX,
		pxy:      m.PX + m.PY,
		pMeas:    m.PMeas,
		corrPair: m.CorrelatedTwoQubit,
	}
	if c.p > 0 {
		c.uX = uFrac(c.px / c.p)
		c.uXY = uFrac(c.pxy / c.p)
	}
	return c
}

// uFrac maps a fraction in [0, 1] to the uint64 threshold with
// P(Uint64() < uFrac(f)) = f up to 2⁻⁶⁴ quantization.
func uFrac(f float64) uint64 {
	if f >= 1 {
		return ^uint64(0)
	}
	if f <= 0 {
		return 0
	}
	return uint64(f * 18446744073709551616.0) // f·2⁶⁴, exact to float64 precision
}

// New compiles the windows protocol for one configuration: a noiseless
// reference stack (ninja star over a CHP tableau) runs the shared compile
// step (compileProtocol) with the star's ESM round and the observable's
// probe, then the engine wires the SC17 decoder: ESM measurement sites
// to hardware ancilla groups and syndrome bits, and the LUTs.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	core := layers.NewChpCore(rand.New(rand.NewSource(cfg.RefSeed)))
	star := surface.NewNinjaStarLayer(core, surface.Config{
		Ancilla:     surface.AncillaDedicated,
		InitRounds:  cfg.InitRounds,
		DecoderRule: cfg.DecoderRule,
	})
	var st *surface.Star
	p, err := compileProtocol(cfg, core, star, 2, func() (*circuit.Circuit, *circuit.Circuit, error) {
		st = star.Star(0)
		// The tapes address physical qubits; correction masks address
		// relative data indices. With one star on a fresh core they
		// coincide.
		for d := 0; d < surface.NumData; d++ {
			if st.Data[d] != d {
				return nil, nil, fmt.Errorf("framesim: data qubit %d placed at %d; expected identity layout", d, st.Data[d])
			}
		}
		if cfg.Observable == ObserveZ {
			return st.ESMCircuit(), st.ProbeXLCircuit(), nil
		}
		return st.ESMCircuit(), st.ProbeZLCircuit(), nil
	})
	if err != nil {
		return nil, err
	}

	e := &Engine{
		protocol:     p,
		lutA:         decoder.BuildLUT(surface.XSupports(surface.RotNormal), surface.NumData),
		lutB:         decoder.BuildLUT(surface.ZSupports(surface.RotNormal), surface.NumData),
		gateAIsZ:     st.Rotation == surface.RotNormal,
		intersection: cfg.DecoderRule == decoder.RuleIntersection,
	}
	e.groupOfSite = make([]uint8, e.esm.NumMeas())
	e.bitOfSite = make([]uint8, e.esm.NumMeas())
	var seen [2][4]bool
	for i := 0; i < e.esm.NumMeas(); i++ {
		q := e.esm.MeasQubit(i)
		rel := -1
		for a, phys := range st.Anc {
			if phys == q {
				rel = a
				break
			}
		}
		if rel < 0 {
			return nil, fmt.Errorf("framesim: ESM measures qubit %d, which is no ancilla", q)
		}
		g, b := uint8(rel/4), uint8(rel%4)
		if seen[g][b] {
			return nil, fmt.Errorf("framesim: ancilla %d measured twice per round", q)
		}
		seen[g][b] = true
		e.groupOfSite[i], e.bitOfSite[i] = g, b
	}
	for g := range seen {
		for b, ok := range seen[g] {
			if !ok {
				return nil, fmt.Errorf("framesim: ESM round misses group %d bit %d", g, b)
			}
		}
	}
	return e, nil
}

// fusedProg is a tape specialized for the sampled hot path: within each
// time slot the error sites are regrouped into one run per channel
// (pre-measurement X flips, single-qubit channel, correlated pairs), so
// the geometric gap samplers advance over a whole run's trial words with
// one comparison instead of one per site. The regrouping is exact
// because a slot's operations act on disjoint qubits (Compile validates
// this): hoisting a site across another operation's gate commutes, which
// is the same argument Compile already uses to interleave sites with
// gates. Under the uncorrelated two-qubit model, pair sites expand into
// two single-channel sites in operand order, exactly like the per-site
// executor. Scripted runs keep the original tape — site identity, not
// throughput, matters there.
type fusedProg struct {
	ops          []tapeOp
	singleQ      []int32
	measQ        []int32
	pairA, pairB []int32
}

// fuseTape builds the fused program for one tape (see fusedProg).
func fuseTape(t *Tape, corrPair bool) *fusedProg {
	fp := &fusedProg{}
	i := 0
	for i < len(t.ops) {
		slot := t.ops[i].slot
		j := i
		for j < len(t.ops) && t.ops[j].slot == slot {
			j++
		}
		measStart := int32(len(fp.measQ))
		singleStart := int32(len(fp.singleQ))
		pairStart := int32(len(fp.pairA))
		var gateOps []tapeOp
		for _, op := range t.ops[i:j] {
			switch op.code {
			case opErrMeas:
				fp.measQ = append(fp.measQ, op.a)
			case opErrSingle:
				fp.singleQ = append(fp.singleQ, op.a)
			case opErrPair:
				if corrPair {
					fp.pairA = append(fp.pairA, op.a)
					fp.pairB = append(fp.pairB, op.b)
				} else {
					fp.singleQ = append(fp.singleQ, op.a, op.b)
				}
			default:
				gateOps = append(gateOps, op)
			}
		}
		// Pre-measurement flips precede the slot, channel sites follow it.
		if n := int32(len(fp.measQ)) - measStart; n > 0 {
			fp.ops = append(fp.ops, tapeOp{code: opRunMeas, slot: slot, a: measStart, b: n})
		}
		fp.ops = append(fp.ops, gateOps...)
		if n := int32(len(fp.singleQ)) - singleStart; n > 0 {
			fp.ops = append(fp.ops, tapeOp{code: opRunSingle, slot: slot, a: singleStart, b: n})
		}
		if n := int32(len(fp.pairA)) - pairStart; n > 0 {
			fp.ops = append(fp.ops, tapeOp{code: opRunPair, slot: slot, a: pairStart, b: n})
		}
		i = j
	}
	return fp
}

// symbolicPass runs one tape noiselessly on a width-1 batch whose lane j
// carries the j-th F₂ basis vector of one plane family (fx when zBasis
// is false, fz when true). Because noiseless frame propagation is linear
// over F₂, the returned outcome words are the dependence masks of each
// measurement site on the pre-tape planes, and the final planes are the
// rows of the tape's linear map (postX[q] = which basis lanes feed
// fx'[q], postZ[q] likewise for fz'[q]). Error sites are skipped — they
// inject nothing in a noiseless run.
func symbolicPass(t *Tape, n int, zBasis bool) (out, postX, postZ []uint64) {
	b := NewBatch(n)
	for q := 0; q < n; q++ {
		if zBasis {
			b.fz[q] = uint64(1) << uint(q)
		} else {
			b.fx[q] = uint64(1) << uint(q)
		}
	}
	out = make([]uint64, t.NumMeas())
	for i := range t.ops {
		op := &t.ops[i]
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
		case opPrep:
			b.fx[a], b.fz[a] = 0, 0
		case opMeas:
			out[op.b] = b.fx[a]
		}
	}
	return out, b.fx, b.fz
}

// shortcut holds the noiseless-round linear functionals derived by
// newShortcut: when ok, the diagnostic round's outcome at site i is the
// ESM reference at i XOR the fx planes in diagX[i] XOR the fz planes in
// diagZ[i] (masks index qubits), and the probe outcome is probeRef XOR
// the probeX/probeZ planes — no tape execution needed.
type shortcut struct {
	ok           bool
	diagX, diagZ []uint64
	probeX       uint64
	probeZ       uint64
	probeRef     uint64
}

// newShortcut derives the diagnostic/probe linear functionals and
// verifies, symbolically, that substituting them for the two noiseless
// tape executions of each window is exact. Skipping the tapes leaves the
// planes of every tape-modified qubit stale (the true run would re-prep
// and re-evolve them), so the substitution is sound iff nothing
// downstream ever reads a stale plane. Let S be the set of qubits whose
// plane rows are not the identity under either noiseless tape (for the
// ESM/probe circuits these are exactly the ancillas — prep wipes them,
// data rows commute through). The checks:
//
//   - no diagnostic outcome mask and no probe outcome mask may read a
//     qubit in S (those outcomes must be functions of data planes only,
//     which stay exact), and
//   - every qubit outside S has an identity row (true by construction of
//     S), so the *real* noisy tape runs, corrections and injected errors
//     keep non-S planes exact: deviations supported on S propagate only
//     within S and never reach an outcome.
//
// Corrections and error injections are XORs, which preserve the
// "stale difference is supported on S" invariant. If any check fails
// (or n > 64, the mask width) the returned shortcut is not ok and the
// engine falls back to executing the noiseless tapes.
func newShortcut(esm, probe *Tape, n int, refProbe []uint64) shortcut {
	if n > 64 {
		return shortcut{}
	}
	outEX, postEXX, postEZX := symbolicPass(esm, n, false)
	outEZ, postEXZ, postEZZ := symbolicPass(esm, n, true)
	outPX, postPXX, postPZX := symbolicPass(probe, n, false)
	outPZ, postPXZ, postPZZ := symbolicPass(probe, n, true)
	var stale uint64
	for q := 0; q < n; q++ {
		id := uint64(1) << uint(q)
		if postEXX[q] != id || postEZZ[q] != id || postEZX[q] != 0 || postEXZ[q] != 0 {
			stale |= id
		}
		if postPXX[q] != id || postPZZ[q] != id || postPZX[q] != 0 || postPXZ[q] != 0 {
			stale |= id
		}
	}
	for i := range outEX {
		if (outEX[i]|outEZ[i])&stale != 0 {
			return shortcut{}
		}
	}
	last := probe.NumMeas() - 1
	if (outPX[last]|outPZ[last])&stale != 0 {
		return shortcut{}
	}
	return shortcut{
		ok:       true,
		diagX:    outEX,
		diagZ:    outEZ,
		probeX:   outPX[last],
		probeZ:   outPZ[last],
		probeRef: refProbe[last],
	}
}

// refRun executes a tape on the reference tableau and returns the
// broadcast outcome word per measurement site (0 or all-ones). Any
// non-deterministic measurement is an error: the frame engine's exactness
// argument requires fixed reference outcomes.
func refRun(tab *chp.Tableau, t *Tape) ([]uint64, error) {
	out := make([]uint64, t.NumMeas())
	for i := range t.ops {
		op := &t.ops[i]
		a := int(op.a)
		switch op.code {
		case opH:
			tab.H(a)
		case opS:
			tab.S(a)
		case opSdg:
			tab.Sdg(a)
		case opCNOT:
			tab.CNOT(a, int(op.b))
		case opCZ:
			tab.CZ(a, int(op.b))
		case opSWAP:
			tab.SWAP(a, int(op.b))
		case opX:
			tab.X(a)
		case opY:
			tab.Y(a)
		case opZ:
			tab.Z(a)
		case opPrep:
			tab.Reset(a)
		case opMeas:
			v, det := tab.Measure(a)
			if !det {
				return nil, fmt.Errorf("framesim: reference measurement of qubit %d is random; the frame engine needs a stabilized protocol state", a)
			}
			if v == 1 {
				out[op.b] = ^uint64(0)
			}
		}
	}
	return out, nil
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// laneRun is the independent sampling state of one 64-shot word: its own
// RNG and channel samplers. Word independence is what makes lane
// extraction exact: word k of a W-wide run replays a width-1 run from
// the same seed bit-for-bit.
type laneRun struct {
	rng                *rand.Rand
	single, meas, pair sampler
}

// runState is the mutable per-run state: frame planes, per-word RNGs and
// channel samplers, and scratch buffers. All scratch is allocated once
// per run; the window loop itself is allocation-free. Outcome scratch
// (r1/r2/diag/probeOut) is strided like the batch planes: site i, word k
// at index i·w+k. active and expected hold one mask word per lane word;
// inj counts injected errors per global shot lane (64·w entries).
type runState struct {
	b *Batch
	w int

	lanes []laneRun

	r1, r2, diag, probeOut []uint64
	carryA, carryB         [][4]uint64
	expected               []uint64
	// corr0 holds lane 0's correction masks from the last decode of word
	// 0, per group (SC17: A, B; Steane: Z, X), for the scripted traces.
	// corrMask is the SC17 decode's per-lane merge of both groups'
	// corrections, all zero between decodes.
	corr0    [2]uint16
	corrMask [64]uint16

	script Script
	round  int
	active []uint64
	inj    []int

	// The sparse walker's state (width-1 runs only): dirty has bit q set
	// iff qubit q's planes may be nonzero; sc/mc/pc count the sites each
	// channel has consumed in the current tape; hits is the scripted
	// walk's hit list.
	dirty      uint64
	sc, mc, pc int
	hits       []scriptHit
}

// checkWide validates a wide batch request: 1..MaxLanes seed words, and
// a shot count that fills every word (the last one possibly partially).
func checkWide(seeds []int64, shots int) error {
	w := len(seeds)
	if w < 1 || w > MaxLanes {
		return fmt.Errorf("framesim: %d lane words outside 1..%d", w, MaxLanes)
	}
	if shots < 1 || shots > 64*w {
		return fmt.Errorf("framesim: batch width %d outside 1..%d", shots, 64*w)
	}
	if shots <= 64*(w-1) {
		return fmt.Errorf("framesim: %d shots leave lane word %d empty (pass %d words)", shots, w-1, (shots+63)/64)
	}
	return nil
}

// RunBatch runs up to 64 Monte-Carlo shots in one word, all seeded from
// one RNG derived from seed. Shot j terminates when it accumulates
// MaxLogicalErrors or reaches MaxWindows; terminated lanes keep
// propagating (their planes are dead weight in the words) but stop
// accumulating statistics. Safe for concurrent use on one Engine.
func (e *Engine) RunBatch(seed int64, shots int) ([]ShotResult, error) {
	return e.runBatchWide(e, []int64{seed}, shots)
}

// RunBatchWide runs up to 64·len(seeds) Monte-Carlo shots in one W-wide
// batch; word k carries shots 64k..64k+63 and is an independent run
// seeded by seeds[k], so the result slice is bit-identical to
// concatenating len(seeds) width-1 RunBatch calls — one wide pass just
// amortizes the tape walk over all words. shots must fill every word
// (the last may be partial). Safe for concurrent use on one Engine.
func (e *Engine) RunBatchWide(seeds []int64, shots int) ([]ShotResult, error) {
	return e.runBatchWide(e, seeds, shots)
}

// RunScripted runs exactly `windows` QEC windows of a single shot with
// the Script's errors injected instead of sampled noise, recording a
// WindowTrace per window. Caps are ignored; the shot never terminates
// early. The differential test feeds the same Script to an
// InjectLayer-instrumented QPDO stack and requires bit-identical traces.
func (e *Engine) RunScripted(windows int, script Script) ([]WindowTrace, ShotResult, error) {
	return runScripted(&e.protocol, e, windows, script, e.trace)
}

// esmRound is the dense walker's noisy ESM round: the fused program in
// sampled mode, the site-exact tape for scripted injection.
func (p *protocol) esmRound(st *runState, out []uint64) {
	if st.script == nil {
		p.runFused(st, p.esmFused, p.refESM, out)
	} else {
		p.runTape(st, p.esm, p.refESM, true, out)
	}
}

// decode is the SC17 windowed decode of lane word k: word-parallel per
// hardware group over the window's two ESM rounds, then scalar LUT
// lookups only for lanes with a nonzero decoded syndrome. A lane's X and
// Z corrections form one correction slot, and a qubit corrected in both
// groups counts one gate.
//
//qa:hotpath
func (e *Engine) decode(st *runState, res []ShotResult, k int) uint64 {
	W := st.w
	var a1, b1, a2, b2, decA, decB [4]uint64
	gather(e, st.r1, k, W, &a1, &b1)
	gather(e, st.r2, k, W, &a2, &b2)
	nzA := e.decodeGroup(&a1, &a2, &st.carryA[k], &decA)
	nzB := e.decodeGroup(&b1, &b2, &st.carryB[k], &decB)
	var trA, trB uint16
	corrMask := &st.corrMask
	for m := nzA; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		cm := uint16(e.lutA.CorrectionMask(synAt(&decA, j)))
		corrMask[j&63] |= cm
		if j == 0 {
			trA = cm
		}
		applyCorr(st.b, cm, k, uint64(1)<<uint(j), e.gateAIsZ)
	}
	for m := nzB; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		cm := uint16(e.lutB.CorrectionMask(synAt(&decB, j)))
		corrMask[j&63] |= cm
		if j == 0 {
			trB = cm
		}
		applyCorr(st.b, cm, k, uint64(1)<<uint(j), !e.gateAIsZ)
	}
	if k == 0 {
		st.corr0[0], st.corr0[1] = trA, trB
	}
	var hasCorr uint64
	for m := nzA | nzB; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		if cm := corrMask[j&63]; cm != 0 {
			hasCorr |= uint64(1) << uint(j)
			if st.active[k]>>uint(j)&1 == 1 {
				res[k*64+j].CorrectionGates += bits.OnesCount16(cm)
				res[k*64+j].CorrectionSlots++
			}
			corrMask[j&63] = 0
		}
	}
	return hasCorr
}

// trace records lane 0's view of the window that just closed.
func (e *Engine) trace(st *runState, clean, out uint64) WindowTrace {
	var a1, b1, a2, b2, da, db [4]uint64
	gather(e, st.r1, 0, st.w, &a1, &b1)
	gather(e, st.r2, 0, st.w, &a2, &b2)
	gather(e, st.diag, 0, st.w, &da, &db)
	tr := WindowTrace{
		R1A: synAt(&a1, 0), R1B: synAt(&b1, 0),
		R2A: synAt(&a2, 0), R2B: synAt(&b2, 0),
		CorrA: st.corr0[0], CorrB: st.corr0[1],
		DiagA: synAt(&da, 0), DiagB: synAt(&db, 0),
		Clean: clean&1 == 1,
		Probe: -1,
	}
	if tr.Clean {
		tr.Probe = int(out & 1)
	}
	return tr
}

// runTape propagates all lane words' frames through one tape. inject
// enables the error sites for scripted injection; with inject false (or
// no script) the sites are inert and the tape runs noiselessly (the
// diagnostic/probe fallback semantics). Sampled noise never goes through
// runTape — the fused program (runFused) owns that path. out receives
// one outcome word per measurement site and lane word (site i, word k at
// i·w+k): reference XOR the frame's X plane.
//
//qa:hotpath
func (x *tapeExec) runTape(st *runState, t *Tape, ref []uint64, inject bool, out []uint64) {
	b := st.b
	w := st.w
	for i := range t.ops {
		op := &t.ops[i]
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
			// Applied in both reference and shots: frame unchanged.
		case opPrep:
			// No reset gauge randomization: the post-reset/post-measure
			// state is a Z eigenstate, so a random Z frame component
			// would be a stabilizer of the evolving reference and can
			// never flip an outcome — omitting the draw is exact.
			o := a * w
			for k := 0; k < w; k++ {
				b.fx[o+k] = 0
				b.fz[o+k] = 0
			}
		case opMeas:
			o := a * w
			oo := int(op.b) * w
			rv := ref[op.b]
			for k := 0; k < w; k++ {
				out[oo+k] = b.fx[o+k] ^ rv
			}
		case opErrMeas:
			if !inject || st.script == nil {
				continue
			}
			// Cold path: scripted runs are single-shot diagnostics.
			//qa:allow hotpath
			if pp, ok := st.script[Site{st.round, int(op.slot), KindMeas, a, -1}]; ok {
				x.applyScripted(st, a, pp[0])
			}
		case opErrSingle:
			if !inject || st.script == nil {
				continue
			}
			// Cold path: scripted runs are single-shot diagnostics.
			//qa:allow hotpath
			if pp, ok := st.script[Site{st.round, int(op.slot), KindSingle, a, -1}]; ok {
				x.applyScripted(st, a, pp[0])
			}
		case opErrPair:
			if !inject || st.script == nil {
				continue
			}
			// Cold path: scripted runs are single-shot diagnostics.
			//qa:allow hotpath
			if pp, ok := st.script[Site{st.round, int(op.slot), KindPair, a, int(op.b)}]; ok {
				x.applyScripted(st, a, pp[0])
				x.applyScripted(st, int(op.b), pp[1])
			}
		}
	}
}

// runFused propagates all lane words' frames through one noisy round of
// the fused program fp (with reference outcomes ref): gates, preps and
// measurements execute exactly like runTape; the regrouped error runs
// advance each word's geometric gap samplers over a whole run's trial
// words at once. Dead lane words skip all sampling.
//
//qa:hotpath
func (x *tapeExec) runFused(st *runState, fp *fusedProg, ref []uint64, out []uint64) {
	b := st.b
	w := st.w
	for i := range fp.ops {
		op := &fp.ops[i]
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
			// Applied in both reference and shots: frame unchanged.
		case opPrep:
			o := a * w
			for k := 0; k < w; k++ {
				b.fx[o+k] = 0
				b.fz[o+k] = 0
			}
		case opMeas:
			o := a * w
			oo := int(op.b) * w
			rv := ref[op.b]
			for k := 0; k < w; k++ {
				out[oo+k] = b.fx[o+k] ^ rv
			}
		case opRunSingle:
			x.runSites(st, fp.singleQ[op.a:op.a+op.b], false)
		case opRunMeas:
			x.runSites(st, fp.measQ[op.a:op.a+op.b], true)
		case opRunPair:
			x.runPairs(st, fp.pairA[op.a:op.a+op.b], fp.pairB[op.a:op.a+op.b])
		}
	}
}

// runSites walks one fused run of single-channel (or pre-measurement
// X-flip) sites for every live lane word: the word's gap sampler jumps
// from hit to hit across the whole run, paying one comparison per hit
// plus one per run instead of one per site.
//
//qa:hotpath
func (x *tapeExec) runSites(st *runState, qs []int32, measFlip bool) {
	p := x.p
	if measFlip {
		p = x.pMeas
	}
	if p <= 0 {
		return
	}
	w := st.w
	m := int64(len(qs)) << 6
	for k := 0; k < w; k++ {
		if st.active[k] == 0 {
			continue
		}
		l := &st.lanes[k]
		s := &l.single
		if measFlip {
			s = &l.meas
		}
		for s.next < m {
			q := int(qs[s.next>>6])
			j := uint(s.next) & 63
			bit := uint64(1) << j
			o := q*w + k
			if measFlip {
				st.b.fx[o] ^= bit
			} else {
				v := l.rng.Uint64()
				switch {
				case v < x.uX:
					st.b.fx[o] ^= bit
				case v < x.uXY:
					st.b.fx[o] ^= bit
					st.b.fz[o] ^= bit
				default:
					st.b.fz[o] ^= bit
				}
			}
			if st.active[k]&bit != 0 {
				st.inj[k*64+int(j)]++
			}
			s.next += s.gap(l.rng)
		}
		s.next -= m
	}
}

// runPairs walks one fused run of correlated two-qubit sites for every
// live lane word.
//
//qa:hotpath
func (x *tapeExec) runPairs(st *runState, qa, qb []int32) {
	if x.p <= 0 {
		return
	}
	w := st.w
	m := int64(len(qa)) << 6
	for k := 0; k < w; k++ {
		if st.active[k] == 0 {
			continue
		}
		l := &st.lanes[k]
		s := &l.pair
		for s.next < m {
			site := s.next >> 6
			x.applyPairHit(st, k, int(qa[site]), int(qb[site]), uint(s.next)&63)
			s.next += s.gap(l.rng)
		}
		s.next -= m
	}
}

// applySingleHit applies one single-qubit channel hit on lane j of word
// k: the conditional Pauli kind given a hit (PX/P, PY/P, PZ/P), decided
// by comparing one raw RNG word against the precomputed uint64
// thresholds.
//
//qa:hotpath
func (x *tapeExec) applySingleHit(st *runState, k, q int, j uint) {
	bit := uint64(1) << j
	o := q*st.w + k
	v := st.lanes[k].rng.Uint64()
	switch {
	case v < x.uX:
		st.b.fx[o] ^= bit
	case v < x.uXY:
		st.b.fx[o] ^= bit
		st.b.fz[o] ^= bit
	default:
		st.b.fz[o] ^= bit
	}
	if st.active[k]&bit != 0 {
		st.inj[k*64+int(j)]++
	}
}

// applyPairHit applies one correlated two-qubit hit on lane j of word k:
// one of the 15 non-trivial pairs, uniformly.
//
//qa:hotpath
func (x *tapeExec) applyPairHit(st *runState, k, qa, qb int, j uint) {
	bit := uint64(1) << j
	oa := qa*st.w + k
	ob := qb*st.w + k
	pr := pairTable[st.lanes[k].rng.Intn(len(pairTable))]
	if pr[0]&ErrX != 0 {
		st.b.fx[oa] ^= bit
	}
	if pr[0]&ErrZ != 0 {
		st.b.fz[oa] ^= bit
	}
	if pr[1]&ErrX != 0 {
		st.b.fx[ob] ^= bit
	}
	if pr[1]&ErrZ != 0 {
		st.b.fz[ob] ^= bit
	}
	if st.active[k]&bit != 0 {
		st.inj[k*64+int(j)]++
	}
}

// applyScripted injects a scripted Pauli on every lane of word 0
// (scripted runs are single-shot; broadcasting keeps lane 0 correct and
// the rest unused).
func (x *tapeExec) applyScripted(st *runState, q int, p PauliErr) {
	if p == ErrNone {
		return
	}
	o := q * st.w
	if p&ErrX != 0 {
		st.b.fx[o] ^= ^uint64(0)
	}
	if p&ErrZ != 0 {
		st.b.fz[o] ^= ^uint64(0)
	}
	st.inj[0]++
}

// sampleCorrectionSlot applies the physical correction slot's error
// opportunities for lane word k: one single-qubit channel site per qubit
// (the corrected qubits execute Pauli gates, the rest idle — all take
// the same channel), masked to the lanes that actually issued a
// correction slot. Trials for masked-out lanes are consumed but not
// applied, which preserves both the per-lane distribution and seed
// determinism.
//
//qa:hotpath
func (x *tapeExec) sampleCorrectionSlot(st *runState, k int, hasCorr uint64) {
	if x.p <= 0 {
		return
	}
	l := &st.lanes[k]
	s := &l.single
	m := int64(x.n) << 6
	for s.next < m {
		j := uint(s.next) & 63
		if hasCorr>>j&1 == 1 {
			x.applySingleHit(st, k, int(s.next>>6), j)
		}
		s.next += s.gap(l.rng)
	}
	s.next -= m
}

// decodeGroup applies the windowed decoding rule word-parallel for one
// hardware group: r1/r2 are the two fresh rounds as syndrome bit-planes,
// carry is the persistent carried round. dec receives the decoded
// syndrome planes; the return value is the lane mask with a nonzero
// decoded syndrome (the only lanes needing scalar LUT work).
//
//qa:hotpath
func (e *Engine) decodeGroup(r1, r2, carry, dec *[4]uint64) uint64 {
	if e.intersection {
		for i := 0; i < 4; i++ {
			dec[i] = (carry[i] & r1[i]) | (r1[i] & r2[i]) | (carry[i] & r2[i])
			carry[i] = r2[i]
		}
		return dec[0] | dec[1] | dec[2] | dec[3]
	}
	diff12 := (r1[0] ^ r2[0]) | (r1[1] ^ r2[1]) | (r1[2] ^ r2[2]) | (r1[3] ^ r2[3])
	diffC1 := (carry[0] ^ r1[0]) | (carry[1] ^ r1[1]) | (carry[2] ^ r1[2]) | (carry[3] ^ r1[3])
	eq12, eqC1 := ^diff12, ^diffC1
	decMask := eq12 | eqC1
	// Lanes decoding via the carried round remove the confirmed part
	// from the next carry (decoder.WindowDecoder's carry adjustment).
	adjust := eqC1 &^ eq12
	for i := 0; i < 4; i++ {
		carry[i] = r2[i] ^ (r1[i] & adjust)
		dec[i] = r1[i] & decMask
	}
	return dec[0] | dec[1] | dec[2] | dec[3]
}

// gather scatters the per-site outcome words of lane word k into
// syndrome bit-planes per hardware group.
//
//qa:hotpath
func gather(e *Engine, out []uint64, k, w int, a, b *[4]uint64) {
	for i := range e.groupOfSite {
		v := out[i*w+k]
		if e.groupOfSite[i] == 0 {
			a[e.bitOfSite[i]] = v
		} else {
			b[e.bitOfSite[i]] = v
		}
	}
}

// synAt extracts the scalar syndrome of lane j from bit-planes.
//
//qa:hotpath
func synAt(p *[4]uint64, j int) decoder.Syndrome {
	return decoder.Syndrome((p[0]>>uint(j))&1 |
		(p[1]>>uint(j))&1<<1 |
		(p[2]>>uint(j))&1<<2 |
		(p[3]>>uint(j))&1<<3)
}

// applyCorr XORs a decoded correction mask into one lane of word k's
// frame: Z corrections into the Z planes, X corrections into the X
// planes. This models both stack variants at once — a physical
// correction gate and a frame-absorbed correction differ from the
// reference by the same Pauli.
//
//qa:hotpath
func applyCorr(b *Batch, cm uint16, k int, lane uint64, asZ bool) {
	for m := cm; m != 0; m &= m - 1 {
		d := bits.TrailingZeros16(m)
		o := d*b.w + k
		if asZ {
			b.fz[o] ^= lane
		} else {
			b.fx[o] ^= lane
		}
	}
}
