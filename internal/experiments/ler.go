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

	"repro/internal/circuit"
	"repro/internal/decoder"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
	"repro/internal/stats"
	"repro/internal/steane"
	"repro/internal/surface"
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
	// statistically (the sparse engine skips the unobservable
	// reset-gauge RNG draws, so the streams differ).
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
// on the same engines.
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
)

// LERConfig parameterizes one logical-error-rate run.
type LERConfig struct {
	// Engine selects the simulation engine (default: the QPDO stack).
	Engine Engine
	// Code selects the QEC code (default: SC17).
	Code Code
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
	return c
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

// qecLayer is the seam between runLER and a code's QEC layer, the top
// of the Fig 5.8 stack: the windows protocol of Listing 5.7 needs one
// QEC window, one diagnostic ESM round and the logical probe, all on
// logical qubit 0.
type qecLayer interface {
	qpdo.Core
	// window runs one QEC window and returns the correction gates and
	// time slots the decoder issued.
	window() (gates, slots int, err error)
	// diagnose runs one ESM round and reports whether it saw no syndrome.
	diagnose() (clean bool, err error)
	// probe reads the logical observable that et's errors flip: Z_L for
	// logical X errors, X_L for logical Z errors.
	probe(et ErrorType) (int, error)
}

// starLayer adapts the SC17 ninja-star layer to runLER. A window is two
// ESM rounds, windowed decoding against the carried round and at most
// one correction slot (thesis §5.3, Fig 5.9).
type starLayer struct{ *surface.NinjaStarLayer }

func (l starLayer) window() (int, int, error) {
	w, err := l.RunWindow(0)
	return w.CorrectionGates, w.CorrectionSlots, err
}

func (l starLayer) diagnose() (bool, error) {
	round, err := l.RunESMRound(0)
	return round.A == 0 && round.B == 0, err
}

func (l starLayer) probe(et ErrorType) (int, error) {
	if et == LogicalZ {
		return l.ProbeXL(0)
	}
	return l.ProbeZL(0)
}

// newQECLayer builds cfg's QEC layer on top of below.
func newQECLayer(cfg LERConfig, below qpdo.Core) qecLayer {
	if cfg.Code == CodeSteane {
		return steaneLayer{steane.NewLayer(below)}
	}
	return starLayer{surface.NewNinjaStarLayer(below, surface.Config{
		Ancilla:     surface.AncillaDedicated,
		InitRounds:  cfg.InitRounds,
		DecoderRule: cfg.DecoderRule,
	})}
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
// Steane block for Steane (the bottom counter of Fig 5.8 is omitted: its
// stream is identical to the error layer's input plus injected errors,
// which the error layer already counts).
func buildStack(cfg LERConfig) (*lerStack, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &lerStack{}
	s.chp = layers.NewChpCore(rand.New(rand.NewSource(rng.Int63())))
	model := layers.Depolarizing(cfg.PER)
	if cfg.Model != nil {
		model = *cfg.Model
	}
	s.errl = layers.NewErrorLayerModel(s.chp, model, rand.New(rand.NewSource(rng.Int63())))
	s.counterMid = layers.NewCounterLayer(s.errl)
	var below qpdo.Core = s.counterMid
	if cfg.WithPauliFrame {
		s.pf = layers.NewPauliFrameLayer(below)
		below = s.pf
	}
	s.counterTop = layers.NewCounterLayer(below)
	s.top = newQECLayer(cfg, s.counterTop)
	if err := s.top.CreateQubits(1); err != nil {
		return nil, err
	}
	return s, nil
}

// reset restores a built stack to the state buildStack(cfg) would
// produce, reusing every allocation. The RNG derivation chain mirrors
// buildStack exactly (one master RNG seeded by cfg.Seed, first child for
// the CHP core, second for the error layer), so a reused stack is
// bit-identical to a fresh one. The QEC layer needs no explicit reset:
// the protocol's initial Prep re-establishes its state — for the ninja
// star rotation, dance mode, decoder carries and logical state (its
// cached ESM circuits are pure functions of the fixed geometry), for a
// Steane block the codespace projection and the two-round decode
// history.
func (s *lerStack) reset(cfg LERConfig) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s.chp.Reset(rand.New(rand.NewSource(rng.Int63())))
	model := layers.Depolarizing(cfg.PER)
	if cfg.Model != nil {
		model = *cfg.Model
	}
	s.errl.Reconfigure(model, rand.New(rand.NewSource(rng.Int63())))
	s.counterMid.ResetStats()
	s.counterTop.ResetStats()
	if s.pf != nil {
		s.pf.Reset()
	}
}

// stackPool hands one reusable stack to each Monte-Carlo worker. The
// pooled stacks must share the structural configuration (Code,
// WithPauliFrame, InitRounds, DecoderRule); per-run fields (PER, Seed,
// Model) are applied by reset.
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
	} else {
		s.reset(cfg)
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
	init := circuit.New().Add(gates.Prep, 0)
	if cfg.ErrorType == LogicalZ {
		init.Add(gates.H, 0) // |+⟩_L: both codes' logical H
	}
	if err := qpdo.WithBypass(top, func() error {
		_, err := qpdo.Run(top, init)
		return err
	}); err != nil {
		return LERResult{}, err
	}

	expected := 0
	var res LERResult
	for res.LogicalErrors < cfg.MaxLogicalErrors && res.Windows < cfg.MaxWindows {
		g, slots, err := top.window()
		if err != nil {
			return res, err
		}
		res.CorrectionGates += g
		res.CorrectionSlots += slots
		res.Windows++

		// Diagnostics in bypass mode: an error-free ESM round reveals
		// observable errors; only a clean state is probed for a logical
		// error (thesis §5.3, Listing 5.7).
		if err := qpdo.WithBypass(top, func() error {
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
// of distance d with tsESM time slots per ESM round.
func UpperBoundRelativeImprovement(d, tsESM int) float64 {
	if d < 2 || tsESM < 1 {
		return math.NaN()
	}
	return 1 / float64((d-1)*tsESM+1)
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
