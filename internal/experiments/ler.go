// Package experiments implements the evaluation harness of the thesis
// (Chapter 5): the logical-error-rate windows protocol (Listing 5.7) on
// the test stack of Fig 5.8, physical-error-rate sweeps with and without
// a Pauli frame, the derived statistics series (LER difference, window-
// count coefficient of variation, t-tests — Figs 5.15-5.24), the Pauli
// frame savings counters (Figs 5.25-5.26) and the analytic upper bound of
// Eq. 5.12 (Fig 5.27).
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/decoder"
	"repro/internal/layers"
	"repro/internal/qpdo"
	"repro/internal/stats"
)

// ErrorType selects which logical error the experiment counts.
type ErrorType int

// Experiment error types: logical X errors are detected on |0⟩_L with
// the Z_L probe, logical Z errors on |+⟩_L with the X_L probe
// (thesis Fig 5.10).
const (
	LogicalX ErrorType = iota
	LogicalZ
)

// String names the error type.
func (e ErrorType) String() string {
	if e == LogicalZ {
		return "Z"
	}
	return "X"
}

// Engine selects the simulation engine behind the LER experiments.
type Engine int

// Engines.
const (
	// EngineStack drives the full QPDO layer stack of thesis Fig 5.8
	// (ninja star → counters → [pauli frame] → error layer → CHP
	// tableau), one shot at a time. It is the semantic oracle: every
	// layer behaves exactly as the thesis specifies.
	EngineStack Engine = iota
	// EngineFrameSim drives the bit-sliced Pauli-frame engine
	// (internal/framesim): 64 Monte-Carlo shots propagate per uint64
	// word against a noiseless CHP reference run. Exact for the LER
	// protocol (Clifford circuits + Pauli noise); validated against
	// EngineStack by differential and statistical tests.
	EngineFrameSim
	// EngineSparse drives the sparse gap-skipping variant of the frame
	// engine (framesim.Sparse): identical protocol semantics, but only
	// nonzero frame entries are touched and whole noiseless windows are
	// skipped via the geometric gap sampler — the engine of choice below
	// pseudo-threshold where almost every window is empty. Scripted runs
	// are bit-identical to EngineFrameSim; sampled runs agree
	// statistically. The streams differ in draw order: the dense
	// engine's fused program draws a time slot's single-channel sites
	// before its pair sites, the sparse engine draws them in tape order
	// (a CNOT's pair site before the slot's idle sites), and a word's
	// samplers share one RNG. For the Steane code both names select the
	// one Steane frame engine, which skips quiet windows itself.
	EngineSparse
)

// String names the engine like the -engine flag values.
func (e Engine) String() string {
	switch e {
	case EngineFrameSim:
		return "framesim"
	case EngineSparse:
		return "sparse"
	}
	return "stack"
}

// ParseEngine maps a -engine flag value to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "stack", "chp", "qpdo":
		return EngineStack, nil
	case "framesim", "frame":
		return EngineFrameSim, nil
	case "sparse":
		return EngineSparse, nil
	}
	return EngineStack, fmt.Errorf("unknown engine %q (want stack, framesim or sparse)", s)
}

// Code selects the QEC code under test. The thesis's QPDO platform hosts
// two (§4.2.3): Surface Code 17, the paper's subject, and Steane
// [[7,1,3]], whose study shows that claim 2 (a Pauli frame gives no LER
// benefit) is not an SC17 artifact. Both run the same windows protocol
// on the same engines. Two more run it on the stack engine only, one
// run at a time through RunLER and RunLERs: the distance-d surface code
// plane of claim 3 and the two-star computation of thesis Fig 2.6.
type Code int

// Codes.
const (
	// CodeSC17 is one SC17 ninja star (surface.NinjaStarLayer), the
	// default.
	CodeSC17 Code = iota
	// CodeSteane is one Steane [[7,1,3]] block (steane.Layer). A window
	// is one ESM round with two-round-agreement decode; the SC17-only
	// fields InitRounds and DecoderRule do not apply.
	CodeSteane
	// CodeSurface is one distance-d surface code plane (surfaced.Plane)
	// with the matching decoder; Distance selects d. A window is d−1
	// ESM rounds. It counts logical X errors only, on the stack engine
	// only, and InitRounds and DecoderRule do not apply.
	CodeSurface
	// CodeComputation is the fault-tolerant computation of thesis Fig
	// 2.6 on two SC17 ninja stars: each step runs a window on each star
	// (two windows), then a noisy transversal CNOT_L, and a logical X
	// error on either star restarts both noiselessly. It counts logical
	// X errors only, on the stack engine only, and InitRounds and
	// DecoderRule do not apply: the stars reset with one ESM round and
	// decode with the default rule.
	CodeComputation
)

// LERConfig parameterizes one logical-error-rate run.
type LERConfig struct {
	// Engine selects the simulation engine (default: the QPDO stack).
	Engine Engine
	// Code selects the QEC code (default: SC17).
	Code Code
	// Distance is the odd code distance of CodeSurface (default 3; 3
	// reproduces SC17 behaviour). It must be zero for every other code.
	Distance int
	// PER is the physical error rate p of the depolarizing model.
	PER float64
	// ErrorType selects the monitored logical error.
	ErrorType ErrorType
	// WithPauliFrame inserts the Pauli frame layer (thesis Fig 5.8).
	WithPauliFrame bool
	// MaxLogicalErrors terminates the run (the thesis uses 50).
	MaxLogicalErrors int
	// MaxWindows caps the run length regardless of detected errors.
	MaxWindows int
	// InitRounds is the number of ESM rounds during (noiseless)
	// initialization; the thesis prescribes d = 3.
	InitRounds int
	// DecoderRule selects the windowed decoding rule (ablation hook).
	DecoderRule decoder.Rule
	// Model optionally overrides the error channel (default: the
	// thesis' symmetric depolarizing model at rate PER).
	Model *layers.Model
	// Seed drives all randomness of the run.
	Seed int64
}

func (c LERConfig) withDefaults() LERConfig {
	if c.MaxLogicalErrors <= 0 {
		c.MaxLogicalErrors = 50
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 2_000_000
	}
	if c.InitRounds <= 0 {
		c.InitRounds = 3
	}
	if c.Code == CodeSurface && c.Distance == 0 {
		c.Distance = 3
	}
	return c
}

// check rejects what c's code cannot run; c must already have its
// defaults applied. The frame engines reject the stack-only codes when
// they compile, and the plane's layout checks its distance.
func (c LERConfig) check() error {
	if c.Distance != 0 && c.Code != CodeSurface {
		return fmt.Errorf("experiments: Distance %d applies to CodeSurface only", c.Distance)
	}
	if (c.Code == CodeSurface || c.Code == CodeComputation) && c.ErrorType == LogicalZ {
		return fmt.Errorf("experiments: the surface plane and the two-star computation probe only Z_L, so they count logical X errors only")
	}
	return nil
}

// LERResult reports one run.
type LERResult struct {
	// Windows is R of thesis Eq. 5.1.
	Windows int
	// LogicalErrors is m of thesis Eq. 5.1.
	LogicalErrors int
	// LER is m / R.
	LER float64

	// CorrectionGates / CorrectionSlots count what the decoder issued
	// (before any Pauli frame absorbs them).
	CorrectionGates int
	CorrectionSlots int

	// OpsIssued / SlotsIssued count the operation stream entering the
	// Pauli frame position; OpsExecuted / SlotsExecuted count what left
	// it toward the error layer. Without a Pauli frame the pairs match.
	OpsIssued     int
	SlotsIssued   int
	OpsExecuted   int
	SlotsExecuted int

	// InjectedErrors counts physical errors inserted by the error layer.
	InjectedErrors int
}

// GatesSavedFrac returns the fraction of gates the Pauli frame filtered
// (thesis Fig 5.25a).
func (r LERResult) GatesSavedFrac() float64 {
	if r.OpsIssued == 0 {
		return 0
	}
	return float64(r.OpsIssued-r.OpsExecuted) / float64(r.OpsIssued)
}

// SlotsSavedFrac returns the fraction of time slots filtered
// (thesis Fig 5.25b).
func (r LERResult) SlotsSavedFrac() float64 {
	if r.SlotsIssued == 0 {
		return 0
	}
	return float64(r.SlotsIssued-r.SlotsExecuted) / float64(r.SlotsIssued)
}

// lerStack bundles the layers of the Fig 5.8 test stack.
type lerStack struct {
	top        qecLayer
	counterTop *layers.CounterLayer
	counterMid *layers.CounterLayer
	pf         *layers.PauliFrameLayer
	errl       *layers.ErrorLayer
	chp        *layers.ChpCore
}

// buildStack assembles: QEC layer → counter → [pauli frame] → counter →
// error → chp, with cfg's code on top — the ninja star for SC17, one
// Steane block for Steane, the distance-d plane, or two stars for the
// computation (the bottom counter of Fig 5.8 is omitted: its stream is
// identical to the error layer's input plus injected errors, which the
// error layer already counts).
func buildStack(cfg LERConfig) (*lerStack, error) {
	model := cfg.model()
	if err := model.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &lerStack{}
	s.chp = layers.NewChpCore(rand.New(rand.NewSource(rng.Int63())))
	s.errl = layers.NewErrorLayerModel(s.chp, model, rand.New(rand.NewSource(rng.Int63())))
	s.counterMid = layers.NewCounterLayer(s.errl)
	var below qpdo.Core = s.counterMid
	if cfg.WithPauliFrame {
		s.pf = layers.NewPauliFrameLayer(below)
		below = s.pf
	}
	s.counterTop = layers.NewCounterLayer(below)
	var err error
	if s.top, err = newQECLayer(cfg, s.counterTop); err != nil {
		return nil, err
	}
	return s, nil
}

// reset restores a built stack to the state buildStack(cfg) would
// produce, reusing every allocation. The RNG derivation chain mirrors
// buildStack exactly (one master RNG seeded by cfg.Seed, first child for
// the CHP core, second for the error layer), so a reused stack is
// bit-identical to a fresh one. The QEC layer needs no explicit reset:
// the protocol's initial logical reset re-establishes its state — for
// the ninja star rotation, dance mode, decoder carries and logical state
// (its cached ESM circuits are pure functions of the fixed geometry),
// for a Steane block the codespace projection and the two-round decode
// history, for the plane its data qubits and decoder carries, for the
// two-star computation both stars and the restart count.
func (s *lerStack) reset(cfg LERConfig) error {
	model := cfg.model()
	if err := model.Validate(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s.chp.Reset(rand.New(rand.NewSource(rng.Int63())))
	s.errl.Reconfigure(model, rand.New(rand.NewSource(rng.Int63())))
	s.counterMid.ResetStats()
	s.counterTop.ResetStats()
	if s.pf != nil {
		s.pf.Reset()
	}
	return nil
}

// model returns cfg's error channel: Model when set, else the
// depolarizing channel at PER. The stack validates it before building
// its error layer, which panics on a non-physical rate (a negative or
// NaN one, say); the frame engines validate it at compile.
func (cfg LERConfig) model() layers.Model {
	if cfg.Model != nil {
		return *cfg.Model
	}
	return layers.Depolarizing(cfg.PER)
}

// stackPool hands one reusable stack to each Monte-Carlo worker. The
// pooled stacks must share the structural configuration (Code,
// Distance, WithPauliFrame, InitRounds, DecoderRule; InitRounds and
// DecoderRule apply to SC17 only); per-run fields (PER, Seed, Model)
// are applied by reset.
type stackPool struct {
	stacks []*lerStack
}

func newStackPool(workers int) *stackPool {
	return &stackPool{stacks: make([]*lerStack, workers)}
}

// run executes one LER run on worker w's stack, building it on first use.
func (p *stackPool) run(w int, cfg LERConfig) (LERResult, error) {
	cfg = cfg.withDefaults()
	s := p.stacks[w]
	if s == nil {
		var err error
		s, err = buildStack(cfg)
		if err != nil {
			return LERResult{}, err
		}
		p.stacks[w] = s
	} else if err := s.reset(cfg); err != nil {
		return LERResult{}, err
	}
	return runLER(cfg, s)
}

// RunLER executes the windows protocol of thesis Listing 5.7 for one
// physical error rate: initialize the logical qubit noiselessly, then
// repeatedly run QEC windows, count windows, and — whenever the data
// qubits carry no observable error — probe for a logical error. The
// frame engines run the same protocol as one shot of a compiled engine
// whose noiseless reference is seeded by cfg.Seed.
func RunLER(cfg LERConfig) (LERResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return LERResult{}, err
	}
	if cfg.Engine != EngineStack {
		e, err := newFrameEngine(cfg)
		if err != nil {
			return LERResult{}, err
		}
		rs, err := e.RunBatchWide([]int64{cfg.Seed}, 1)
		if err != nil {
			return LERResult{}, err
		}
		return frameToLER(rs[0]), nil
	}
	s, err := buildStack(cfg)
	if err != nil {
		return LERResult{}, err
	}
	return runLER(cfg, s)
}

// runLER drives the windows protocol on an initialized stack; cfg must
// already have its defaults applied.
func runLER(cfg LERConfig, s *lerStack) (LERResult, error) {
	top := s.top
	// Noiseless initialization (bypass mode).
	if err := qpdo.WithBypass(s.counterTop, func() error {
		return top.reset(cfg.ErrorType)
	}); err != nil {
		return LERResult{}, err
	}

	expected := 0
	var res LERResult
	for res.LogicalErrors < cfg.MaxLogicalErrors && res.Windows < cfg.MaxWindows {
		g, slots, windows, err := top.window()
		if err != nil {
			return res, err
		}
		res.CorrectionGates += g
		res.CorrectionSlots += slots
		res.Windows += windows

		// Diagnostics in bypass mode: an error-free ESM round reveals
		// observable errors; only a clean state is probed for a logical
		// error (thesis §5.3, Listing 5.7).
		if err := qpdo.WithBypass(s.counterTop, func() error {
			clean, err := top.diagnose()
			if err != nil || !clean {
				return err // !clean: observable physical errors remain
			}
			out, err := top.probe(cfg.ErrorType)
			if err != nil {
				return err
			}
			if out != expected {
				res.LogicalErrors++
				expected = out
			}
			return nil
		}); err != nil {
			return res, err
		}
	}
	if res.Windows > 0 {
		res.LER = float64(res.LogicalErrors) / float64(res.Windows)
	}
	res.OpsIssued = s.counterTop.Stats.Ops
	res.SlotsIssued = s.counterTop.Stats.Slots
	res.OpsExecuted = s.counterMid.Stats.Ops
	res.SlotsExecuted = s.counterMid.Stats.Slots
	res.InjectedErrors = s.errl.Stats.Total()
	return res, nil
}

// PointResult aggregates repeated runs at one physical error rate.
type PointResult struct {
	PER float64
	// LERs holds one logical error rate per repetition.
	LERs []float64
	// WindowCounts holds R per repetition (for the CV analysis of
	// thesis Figs 5.19-5.20).
	WindowCounts []float64
	// GatesSaved / SlotsSaved hold the per-run saving fractions.
	GatesSaved []float64
	SlotsSaved []float64
	// TotalErrors / TotalWindows pool m and R (thesis Eq. 5.1) over the
	// repetitions that actually ran — the binomial counts behind the
	// Wilson error bars and the adaptive stopping rule. For adaptive
	// sweeps len(LERs) < Samples and these pools are the authoritative
	// statistics.
	TotalErrors  int64
	TotalWindows int64
}

// MeanLER returns the mean logical error rate of the point.
func (p PointResult) MeanLER() float64 { return mean(p.LERs) }

// StdLER returns the sample standard deviation of the LERs.
func (p PointResult) StdLER() float64 { return stddev(p.LERs) }

// PooledLER returns the pooled estimate m/R over all repetitions.
func (p PointResult) PooledLER() float64 {
	if p.TotalWindows == 0 {
		return math.NaN()
	}
	return float64(p.TotalErrors) / float64(p.TotalWindows)
}

// WilsonLER returns the 95% Wilson score interval on the pooled
// logical-errors-per-window proportion.
func (p PointResult) WilsonLER() (lo, hi float64) {
	return stats.WilsonInterval(p.TotalErrors, p.TotalWindows, wilsonZ95)
}

// wilsonZ95 is the two-sided 95% normal quantile used for all sweep
// error bars and the adaptive stopping rule.
const wilsonZ95 = 1.959963984540054

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// SweepConfig parameterizes a PER sweep (thesis Figs 5.11-5.14).
type SweepConfig struct {
	// Engine selects the simulation engine (default: the QPDO stack).
	Engine Engine
	// Code selects the QEC code (default: SC17).
	Code             Code
	PERs             []float64
	Samples          int
	ErrorType        ErrorType
	WithPauliFrame   bool
	MaxLogicalErrors int
	MaxWindows       int
	BaseSeed         int64
	// Lanes widens frame-engine shards to Lanes 64-shot words (see
	// Spec.Lanes): 0 or 1 keeps single words, 2/4/8 run the wide kernels.
	// Folded results are bit-identical at every width; only throughput
	// and shard granularity change. Invalid for the stack engine.
	Lanes int
	// AdaptRelWidth, when > 0, enables adaptive per-point early
	// stopping: a point stops sampling once the 95% Wilson interval on
	// its pooled LER is narrower than AdaptRelWidth relative to the
	// point estimate (half-width ≤ AdaptRelWidth · m/R), after at least
	// AdaptMinSamples samples and at least one observed logical error.
	// Stopping is batch-granular — the decision is re-evaluated only at
	// multiples of AdaptBatch samples — which keeps the folded results
	// bit-identical for any worker count.
	AdaptRelWidth float64
	// AdaptMinSamples is the minimum sample count before early stop is
	// considered (default 64 when adaptive sampling is enabled).
	AdaptMinSamples int
	// AdaptBatch is the early-stop decision granularity in samples
	// (default 256 when adaptive sampling is enabled; rounded up to
	// whole 64-shot words for the frame engines).
	AdaptBatch int
	// Workers bounds the Monte-Carlo worker pool. Zero means
	// runtime.GOMAXPROCS(0); the results are bit-identical for any
	// value because every (point × sample) run derives its own RNG from
	// BaseSeed via ShardSeed.
	Workers int
	// Progress, when non-nil, receives one call per completed point, in
	// ascending point order, serialized through a single collector
	// goroutine (safe to use from the cmd/ tools without locking).
	Progress func(point int, per float64)
}

// RunSweep executes repeated LER runs over a PER range through the
// (spec → shards → fold) pipeline of RunSpec. The (point × sample) runs
// are independent — each derives its RNG from ShardSeed(BaseSeed, point,
// unit) — and are fanned out over a bounded worker pool; each worker
// reuses one simulator stack across its runs (reset between samples,
// bit-identical to rebuilding); results are folded in deterministic
// (point, sample) order.
func RunSweep(cfg SweepConfig) ([]PointResult, error) {
	return RunSpec(context.Background(), SpecOf(cfg), RunOptions{
		Workers:  cfg.Workers,
		Progress: cfg.Progress,
	})
}

// LogSpace returns n log-spaced values from lo to hi inclusive.
func LogSpace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := range out {
		out[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}

// UpperBoundRelativeImprovement evaluates thesis Eq. 5.12: the maximum
// relative LER improvement a Pauli frame can deliver for a surface code
// of distance d with tsESM time slots per ESM round. The denominator
// (d−1)·tsESM+1 is computed in float64, so a huge tsESM gives a tiny
// bound instead of overflowing an int.
func UpperBoundRelativeImprovement(d, tsESM int) float64 {
	if d < 2 || tsESM < 1 {
		return math.NaN()
	}
	return 1 / (float64(d-1)*float64(tsESM) + 1)
}

// WindowTimeSlots returns tswindow of thesis Eq. 5.6-5.9 for distance d:
// (d−1) ESM rounds of tsESM slots plus one correction slot when
// corrections are pending.
func WindowTimeSlots(d, tsESM int, corrections bool) int {
	ts := (d - 1) * tsESM
	if corrections {
		ts++
	}
	return ts
}

// FmtPoint renders one sweep point like the thesis data tables, with a
// 95% Wilson interval on the pooled LER as the error bar.
func FmtPoint(p PointResult) string {
	lo, hi := p.WilsonLER()
	return fmt.Sprintf("PER=%.3e  LER=%.3e  [%.2e, %.2e]95%%  (n=%d)",
		p.PER, p.MeanLER(), lo, hi, len(p.LERs))
}
