// Sweep specifications: the serializable, canonical description of a
// PER sweep and its decomposition into independent shards. A Spec is the
// wire format of the sweep service (cmd/sweepd) and the hashing input of
// the content-addressed result store (internal/sweepstore): everything a
// sweep's results depend on is in the Spec, and everything one shard's
// results depend on is in its ShardConfig.
package experiments

import (
	"fmt"
	"math"
)

// Engine names used in serialized specs (the -engine flag vocabulary).
const (
	EngineNameStack    = "stack"
	EngineNameFrameSim = "framesim"
	EngineNameSparse   = "sparse"
)

// Code names used in serialized specs. SC17 is spelled as the empty
// string, so an SC17 spec or shard carries no code field at all. The
// surface plane and the two-star computation have names only so that
// Validate can reject them: they run on the stack, one run at a time,
// through RunLER.
const (
	CodeNameSteane      = "steane"
	CodeNameSurface     = "surface"
	CodeNameComputation = "computation"
)

// MaxShards caps the shard count of a spec. Every run sizes its
// per-shard slices up front, so an unbounded count lets one request
// exhaust memory. The cap sits far above every sweep the repository
// documents: the largest, EXPERIMENTS.md's thesis-scale lersweep (100
// points of 10 stack samples), has 1 000 shards.
const MaxShards = 1 << 20

// Spec is the serializable form of a SweepConfig: the pure inputs of a
// sweep, with the runtime-only fields (Workers, Progress) stripped.
// Results are a pure function of a normalized Spec — same Spec, same
// bits, for any worker count, process, or machine.
type Spec struct {
	// Engine selects the simulation engine: "stack", "framesim" or
	// "sparse".
	Engine string `json:"engine"`
	// Code selects the QEC code: "steane", or empty for SC17. It is
	// omitted from the canonical JSON for SC17, so an SC17 spec's hash,
	// shard keys and job ID do not depend on the field.
	Code string `json:"code,omitempty"`
	// PERs are the physical error rates of the sweep points.
	PERs []float64 `json:"pers"`
	// Samples is the number of Monte-Carlo repetitions per point.
	Samples int `json:"samples"`
	// ErrorType is the monitored logical error: "x" or "z".
	ErrorType string `json:"error_type"`
	// WithPauliFrame inserts the Pauli frame layer.
	WithPauliFrame bool `json:"with_pauli_frame"`
	// MaxLogicalErrors / MaxWindows terminate each run.
	MaxLogicalErrors int `json:"max_logical_errors"`
	MaxWindows       int `json:"max_windows"`
	// BaseSeed drives all randomness via ShardSeed.
	BaseSeed int64 `json:"base_seed"`
	// Lanes widens the frame engines' shards to Lanes 64-shot words
	// (64·Lanes shots propagate per pass through the wide kernels).
	// 0 or 1 is the canonical single-word layout; 2, 4 and 8 are the
	// supported wide widths. Word w of a point carries the same
	// ShardSeed-derived RNG at every width and lane extraction is
	// bit-identical, so Lanes changes shard granularity, never the folded
	// results. Invalid for the stack engine, which has no lanes.
	Lanes int `json:"lanes,omitempty"`
	// AdaptRelWidth > 0 enables adaptive per-point early stopping at
	// the given relative 95% Wilson half-width (see SweepConfig). The
	// adaptive fields are part of the spec hash: an adaptive sweep is a
	// different computation than a full sweep and never shares cache
	// entries with one. They are omitted from the canonical JSON when
	// adaptive sampling is off, so pre-existing non-adaptive spec
	// hashes are unchanged.
	AdaptRelWidth float64 `json:"adapt_rel_width,omitempty"`
	// AdaptMinSamples is the minimum sample count before early stop.
	AdaptMinSamples int `json:"adapt_min_samples,omitempty"`
	// AdaptBatch is the stop-decision granularity in samples.
	AdaptBatch int `json:"adapt_batch,omitempty"`
}

// SpecOf extracts the serializable part of a SweepConfig.
func SpecOf(cfg SweepConfig) Spec {
	et := "x"
	if cfg.ErrorType == LogicalZ {
		et = "z"
	}
	code := ""
	switch cfg.Code {
	case CodeSteane:
		code = CodeNameSteane
	case CodeSurface:
		code = CodeNameSurface
	case CodeComputation:
		code = CodeNameComputation
	}
	return Spec{
		Engine:           cfg.Engine.String(),
		Code:             code,
		PERs:             cfg.PERs,
		Samples:          cfg.Samples,
		ErrorType:        et,
		WithPauliFrame:   cfg.WithPauliFrame,
		MaxLogicalErrors: cfg.MaxLogicalErrors,
		MaxWindows:       cfg.MaxWindows,
		BaseSeed:         cfg.BaseSeed,
		Lanes:            cfg.Lanes,
		AdaptRelWidth:    cfg.AdaptRelWidth,
		AdaptMinSamples:  cfg.AdaptMinSamples,
		AdaptBatch:       cfg.AdaptBatch,
	}
}

// SweepConfig converts the spec back to a runnable configuration
// (Workers and Progress are left at their zero values).
func (s Spec) SweepConfig() (SweepConfig, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return SweepConfig{}, err
	}
	return s.sweepConfig(), nil
}

// sweepConfig is SweepConfig for a spec that is already Normalized and
// Validated.
func (s Spec) sweepConfig() SweepConfig {
	engine := EngineStack
	switch s.Engine {
	case EngineNameFrameSim:
		engine = EngineFrameSim
	case EngineNameSparse:
		engine = EngineSparse
	}
	code := CodeSC17
	if s.Code == CodeNameSteane {
		code = CodeSteane
	}
	et := LogicalX
	if s.ErrorType == "z" {
		et = LogicalZ
	}
	return SweepConfig{
		Engine:           engine,
		Code:             code,
		PERs:             s.PERs,
		Samples:          s.Samples,
		ErrorType:        et,
		WithPauliFrame:   s.WithPauliFrame,
		MaxLogicalErrors: s.MaxLogicalErrors,
		MaxWindows:       s.MaxWindows,
		BaseSeed:         s.BaseSeed,
		Lanes:            s.Lanes,
		AdaptRelWidth:    s.AdaptRelWidth,
		AdaptMinSamples:  s.AdaptMinSamples,
		AdaptBatch:       s.AdaptBatch,
	}
}

// Normalized fills the defaulted fields with their effective values, so
// that two specs describing the same computation hash identically:
// Samples<0 runs 0 samples, and the termination caps default exactly as
// LERConfig.withDefaults applies them at run time.
func (s Spec) Normalized() Spec {
	if s.Engine == "" {
		s.Engine = EngineNameStack
	}
	if s.ErrorType == "" {
		s.ErrorType = "x"
	}
	if s.Samples < 0 {
		s.Samples = 0
	}
	if s.MaxLogicalErrors <= 0 {
		s.MaxLogicalErrors = defaultMaxLogicalErrors
	}
	if s.MaxWindows <= 0 {
		s.MaxWindows = defaultMaxWindows
	}
	if s.Lanes == 1 {
		// One lane word is the canonical zero state: a width-1 spec is
		// the same computation whether the width was defaulted or spelled
		// out, and must hash identically.
		s.Lanes = 0
	}
	if s.AdaptRelWidth > 0 {
		if s.AdaptMinSamples <= 0 {
			s.AdaptMinSamples = 64
		}
		if s.AdaptBatch <= 0 {
			s.AdaptBatch = 256
		}
	} else {
		// Canonical off state: any non-positive (or NaN) width means
		// "full sweep", and the companion fields must not perturb the
		// spec hash.
		s.AdaptRelWidth = 0
		s.AdaptMinSamples = 0
		s.AdaptBatch = 0
	}
	return s
}

// Validate rejects specs that cannot be run (or could not be cached
// reproducibly). It expects a Normalized spec.
func (s Spec) Validate() error {
	switch s.Engine {
	case EngineNameStack, EngineNameFrameSim, EngineNameSparse:
	default:
		return fmt.Errorf("spec: unknown engine %q (want %s, %s or %s)",
			s.Engine, EngineNameStack, EngineNameFrameSim, EngineNameSparse)
	}
	switch s.Code {
	case "", CodeNameSteane:
	case CodeNameSurface, CodeNameComputation:
		return fmt.Errorf("spec: code %q runs only on the stack engine, one run at a time through RunLER, not in a sweep", s.Code)
	default:
		return fmt.Errorf("spec: unknown code %q (want %s, or no code for SC17)", s.Code, CodeNameSteane)
	}
	switch s.ErrorType {
	case "x", "z":
	default:
		return fmt.Errorf("spec: unknown error_type %q (want x or z)", s.ErrorType)
	}
	if len(s.PERs) == 0 {
		return fmt.Errorf("spec: no PER points")
	}
	for i, p := range s.PERs {
		if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 || p > 1 {
			return fmt.Errorf("spec: PER point %d is %v, want 0 < p <= 1", i, p)
		}
	}
	switch s.Lanes {
	case 0, 2, 4, 8:
	default:
		return fmt.Errorf("spec: lane width %d not supported (want 1, 2, 4 or 8)", s.Lanes)
	}
	if s.Lanes > 0 && !s.batchEngine() {
		return fmt.Errorf("spec: lanes apply to the frame engines only, not %q", s.Engine)
	}
	if spp := s.shardsPerPoint(); spp > MaxShards/len(s.PERs) {
		return fmt.Errorf("spec: %d PER points of %d shards each exceed the cap of %d shards", len(s.PERs), spp, MaxShards)
	}
	if math.IsNaN(s.AdaptRelWidth) || math.IsInf(s.AdaptRelWidth, 0) || s.AdaptRelWidth < 0 {
		return fmt.Errorf("spec: adapt_rel_width is %v, want a finite value >= 0", s.AdaptRelWidth)
	}
	if s.AdaptMinSamples < 0 || s.AdaptBatch < 0 {
		return fmt.Errorf("spec: negative adaptive sampling fields (min_samples=%d, batch=%d)",
			s.AdaptMinSamples, s.AdaptBatch)
	}
	return nil
}

// Shard addresses one independent work unit of a sweep. Stack-engine
// shards are single (point × sample) runs; framesim shards are wide
// batches of Lanes 64-shot words. Shards are a pure function of the
// spec: Shard(i) is the same struct in every process.
type Shard struct {
	// Index is the shard's position in 0..NumShards-1.
	Index int
	// Point is the PER point the shard contributes to.
	Point int
	// Offset is the first sample index the shard produces.
	Offset int
	// Count is the number of runs the shard produces (1 for the stack
	// engine, up to 64·Lanes for a wide frame batch).
	Count int
	// Seed is the shard's RNG seed: ShardSeed(BaseSeed, Point, unit) for
	// the stack engine, the first word's seed for a frame batch (the
	// remaining word seeds are enumerated by WordSeeds).
	Seed int64
}

// shardsPerPoint returns the number of shards each PER point splits
// into. It expects a Normalized spec.
func (s Spec) shardsPerPoint() int {
	if s.batchEngine() {
		// Rounds up without overflowing near the top of the int range.
		span := 64 * s.lanes()
		n := s.Samples / span
		if s.Samples%span != 0 {
			n++
		}
		return n
	}
	return s.Samples
}

// lanes returns the effective lane width in 64-shot words (>= 1). It
// expects a Normalized spec.
func (s Spec) lanes() int {
	if s.Lanes > 1 {
		return s.Lanes
	}
	return 1
}

// batchEngine reports whether the engine produces 64-shot batch words
// (the dense and sparse frame engines) rather than single runs.
func (s Spec) batchEngine() bool {
	return s.Engine == EngineNameFrameSim || s.Engine == EngineNameSparse
}

// NumShards returns the total shard count of the sweep.
func (s Spec) NumShards() int {
	s = s.Normalized()
	return len(s.PERs) * s.shardsPerPoint()
}

// Shard returns the i'th work unit. The enumeration order is
// point-major — exactly the (point × sample) order the pre-pipeline
// sweep drivers used, which keeps the seeded golden results identical.
func (s Spec) Shard(i int) Shard {
	s = s.Normalized()
	spp := s.shardsPerPoint()
	p, u := i/spp, i%spp
	sh := Shard{Index: i, Point: p, Offset: u, Count: 1, Seed: ShardSeed(s.BaseSeed, p, u)}
	if s.batchEngine() {
		l := s.lanes()
		sh.Offset = u * 64 * l
		sh.Count = s.Samples - sh.Offset
		if sh.Count > 64*l {
			sh.Count = 64 * l
		}
		// Seed words by global word index, so word w of a point carries
		// the same RNG at every lane width (and exactly the width-1 seed
		// enumeration when l == 1).
		sh.Seed = ShardSeed(s.BaseSeed, p, u*l)
	}
	return sh
}

// WordSeeds returns the per-word RNG seeds of shard sh: one ShardSeed
// per 64-shot word, indexed by the word's global position within the
// point (Offset/64 + k). The enumeration is lane-width-independent —
// word w of a point draws the same seed at every Lanes setting — which,
// combined with the engines' bit-identical lane extraction, makes folded
// sweep results identical across widths. For the stack engine the
// shard's single seed is returned.
func (s Spec) WordSeeds(sh Shard) []int64 {
	s = s.Normalized()
	if !s.batchEngine() {
		return []int64{sh.Seed}
	}
	seeds := make([]int64, (sh.Count+63)/64)
	w0 := sh.Offset / 64
	for k := range seeds {
		seeds[k] = ShardSeed(s.BaseSeed, sh.Point, w0+k)
	}
	return seeds
}

// ShardConfig is the complete engine-level description of one shard's
// computation: every input its results depend on. Equal ShardConfigs
// produce bit-identical results (that is the repo's determinism
// contract), which makes the struct the natural content-address key for
// the sweep result cache.
type ShardConfig struct {
	Engine string `json:"engine"`
	// Code is the spec's code: "steane", or omitted for SC17 so SC17
	// shard keys are unchanged.
	Code             string  `json:"code,omitempty"`
	PER              float64 `json:"per"`
	ErrorType        string  `json:"error_type"`
	WithPauliFrame   bool    `json:"with_pauli_frame"`
	MaxLogicalErrors int     `json:"max_logical_errors"`
	MaxWindows       int     `json:"max_windows"`
	// Seed is the shard's ShardSeed-derived RNG seed.
	Seed int64 `json:"seed"`
	// Shots is the number of runs the shard produces.
	Shots int `json:"shots"`
	// RefSeed is the framesim noiseless-reference seed (the sweep's
	// BaseSeed); zero for the stack engine, whose runs depend on Seed
	// alone.
	RefSeed int64 `json:"ref_seed"`
	// Seeds lists the per-word RNG seeds of a multi-word (Lanes > 1)
	// frame shard; Seeds[0] == Seed. Omitted for single-word shards, so
	// a 64-shot shard's canonical encoding — and cache key — does not
	// depend on the lane width of the sweep that produced it.
	Seeds []int64 `json:"seeds,omitempty"`
}

// ShardConfig returns the content-address description of shard sh.
func (s Spec) ShardConfig(sh Shard) ShardConfig {
	s = s.Normalized()
	sc := ShardConfig{
		Engine:           s.Engine,
		Code:             s.Code,
		PER:              s.PERs[sh.Point],
		ErrorType:        s.ErrorType,
		WithPauliFrame:   s.WithPauliFrame,
		MaxLogicalErrors: s.MaxLogicalErrors,
		MaxWindows:       s.MaxWindows,
		Seed:             sh.Seed,
		Shots:            sh.Count,
	}
	if s.batchEngine() {
		sc.RefSeed = s.BaseSeed
		if seeds := s.WordSeeds(sh); len(seeds) > 1 {
			sc.Seeds = seeds
		}
	}
	return sc
}
