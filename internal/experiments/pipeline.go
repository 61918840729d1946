// The sweep pipeline: a sweep is a pure (spec → shard results → fold)
// computation. RunSpec enumerates the spec's shards, computes (or looks
// up) each one on a bounded worker pool, and folds the per-shard runs
// into PointResults. The local CLIs (RunSweep) and the sweep service
// (cmd/sweepd via internal/sweepstore) share this single path, so cached,
// resumed, and networked sweeps are bit-identical to local ones.
package experiments

import (
	"context"
	"fmt"
	"sync"
)

// RunOptions carries the runtime-only knobs of a pipeline run — none of
// them may change the folded results, only how (and whether) shards are
// computed.
type RunOptions struct {
	// Workers bounds the worker pool. Zero means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, receives one call per completed point in
	// ascending point order, serialized through the in-order collector.
	Progress func(point int, per float64)
	// Lookup, when non-nil, is consulted before computing a shard; a hit
	// must return exactly sh.Count runs previously produced by an equal
	// ShardConfig. Short or oversized hits are ignored and recomputed.
	// Called concurrently from worker goroutines.
	Lookup func(sh Shard) ([]LERResult, bool)
	// Persist, when non-nil, receives every computed shard's runs
	// (cache hits are not re-persisted). A Persist error aborts the
	// sweep. Called concurrently from worker goroutines.
	Persist func(sh Shard, runs []LERResult) error
}

// shardRunner computes shards: one reusable stack per worker for the
// QPDO engine, one lazily compiled immutable frame engine per point.
// The spec's code and engine pick the stack's QEC layer and the frame
// engine; nothing else in the pipeline depends on them.
type shardRunner struct {
	spec Spec
	cfg  SweepConfig
	pool *stackPool

	once    []sync.Once
	engines []wideEngine
	engErr  []error
}

// newShardRunner expects a Normalized, Validated spec.
func newShardRunner(spec Spec, workers int) *shardRunner {
	return &shardRunner{
		spec:    spec,
		cfg:     spec.sweepConfig(),
		pool:    newStackPool(workers),
		once:    make([]sync.Once, len(spec.PERs)),
		engines: make([]wideEngine, len(spec.PERs)),
		engErr:  make([]error, len(spec.PERs)),
	}
}

// lerConfig builds the per-run LERConfig of point p.
func (r *shardRunner) lerConfig(p int, seed int64) LERConfig {
	return LERConfig{
		Engine:           r.cfg.Engine,
		Code:             r.cfg.Code,
		PER:              r.cfg.PERs[p],
		ErrorType:        r.cfg.ErrorType,
		WithPauliFrame:   r.cfg.WithPauliFrame,
		MaxLogicalErrors: r.cfg.MaxLogicalErrors,
		MaxWindows:       r.cfg.MaxWindows,
		Seed:             seed,
	}
}

// engine returns point p's compiled frame engine, building it on first
// use. Engines are immutable and shared across workers; the compile
// seed is the sweep's BaseSeed (the noiseless reference run).
func (r *shardRunner) engine(p int) (wideEngine, error) {
	r.once[p].Do(func() {
		r.engines[p], r.engErr[p] = newFrameEngine(r.lerConfig(p, r.spec.BaseSeed).withDefaults())
	})
	return r.engines[p], r.engErr[p]
}

// run computes shard sh on worker w.
func (r *shardRunner) run(w int, sh Shard) ([]LERResult, error) {
	if r.cfg.Engine == EngineStack {
		res, err := r.pool.run(w, r.lerConfig(sh.Point, sh.Seed))
		if err != nil {
			return nil, err
		}
		return []LERResult{res}, nil
	}
	e, err := r.engine(sh.Point)
	if err != nil {
		return nil, err
	}
	// One wide pass over the shard's words (a single word is the
	// width-1 case of the same call): word k is seeded by its global
	// word index, so results are bit-identical to running each word
	// alone at Lanes = 1.
	rs, err := e.RunBatchWide(r.spec.WordSeeds(sh), sh.Count)
	if err != nil {
		return nil, err
	}
	return frameShotsToLER(rs), nil
}

// step is the one shard step of every pipeline driver (RunSpec, the
// adaptive executor, RunShardBatch): serve shard sh from opt.Lookup
// when it holds exactly sh.Count runs, otherwise compute it on worker
// w, check the run count and hand the runs to opt.Persist.
func (r *shardRunner) step(w int, sh Shard, opt RunOptions) ([]LERResult, error) {
	if opt.Lookup != nil {
		if rs, ok := opt.Lookup(sh); ok && len(rs) == sh.Count {
			return rs, nil
		}
	}
	rs, err := r.run(w, sh)
	if err != nil {
		return nil, err
	}
	if len(rs) != sh.Count {
		return nil, fmt.Errorf("shard %d: engine produced %d runs, want %d", sh.Index, len(rs), sh.Count)
	}
	if opt.Persist != nil {
		if err := opt.Persist(sh, rs); err != nil {
			return nil, fmt.Errorf("persist shard %d: %w", sh.Index, err)
		}
	}
	return rs, nil
}

// RunSpec executes a sweep spec: every shard is looked up (opt.Lookup),
// or computed and handed to opt.Persist, then the per-shard runs are
// folded into PointResults. The fold is bit-identical for any worker
// count, any Lookup hit pattern, and any interleaving of cached and
// computed shards, because each shard's runs are a pure function of its
// ShardConfig. Cancelling ctx stops handing out shards and returns
// ctx.Err(); shards persisted before the cancel remain valid for resume.
func RunSpec(ctx context.Context, spec Spec, opt RunOptions) ([]PointResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.AdaptRelWidth > 0 {
		return runAdaptiveSpec(ctx, spec, opt)
	}
	n := spec.NumShards()
	runs := make([][]LERResult, n)

	var progress *progressCollector
	if opt.Progress != nil && spec.shardsPerPoint() > 0 {
		progress = newProgressCollector(spec.PERs, spec.shardsPerPoint(), opt.Progress)
	}
	workers := resolveWorkers(opt.Workers)
	runner := newShardRunner(spec, workers)
	err := forEachShardWorkerCtx(ctx, n, workers, func(w, i int) error {
		sh := spec.Shard(i)
		rs, err := runner.step(w, sh, opt)
		if err != nil {
			return err
		}
		runs[i] = rs
		if progress != nil {
			progress.sampleDone(sh.Point)
		}
		return nil
	})
	if progress != nil {
		progress.close()
	}
	if err != nil {
		return nil, err
	}

	out := FoldShards(spec, runs)
	if opt.Progress != nil && spec.shardsPerPoint() == 0 {
		for i, per := range spec.PERs {
			opt.Progress(i, per) // degenerate sweep: keep the per-point contract
		}
	}
	return out, nil
}

// FoldShards merges per-shard runs (indexed like Spec.Shard) into the
// per-point aggregates. The fold is deterministic: shards are visited in
// ascending index order — which is (point, offset) order — never by
// completion order. Nil entries (shards an adaptive sweep stopped before
// computing) are skipped, so a partial fold simply yields fewer samples
// per point; full folds are unchanged.
func FoldShards(spec Spec, shardRuns [][]LERResult) []PointResult {
	spec = spec.Normalized()
	out := make([]PointResult, len(spec.PERs))
	for i, per := range spec.PERs {
		out[i].PER = per
	}
	for i, rs := range shardRuns {
		if rs == nil {
			continue
		}
		pt := &out[spec.Shard(i).Point]
		for _, r := range rs {
			pt.LERs = append(pt.LERs, r.LER)
			pt.WindowCounts = append(pt.WindowCounts, float64(r.Windows))
			pt.GatesSaved = append(pt.GatesSaved, r.GatesSavedFrac())
			pt.SlotsSaved = append(pt.SlotsSaved, r.SlotsSavedFrac())
			pt.TotalErrors += int64(r.LogicalErrors)
			pt.TotalWindows += int64(r.Windows)
		}
	}
	return out
}
