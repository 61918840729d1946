// The sweep pipeline: a sweep is a pure (spec → shard results → fold)
// computation. RunSpec enumerates the spec's shards, resolves each one
// through a single step (look it up, or compute it and persist it), and
// folds the per-shard runs into PointResults. The local CLIs (RunSweep),
// the store-backed runs (internal/sweepstore) and the sweep service with
// or without remote workers (cmd/sweepd) all run this one executor, so
// cached, resumed, adaptive and distributed sweeps are bit-identical to
// local ones.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/stats"
)

// RunOptions carries the runtime-only knobs of a pipeline run — none of
// them may change the folded results, only how (and whether) shards are
// computed.
//
// Every shard takes one step: a Lookup hit with exactly sh.Count runs,
// or a computation whose run count is checked before Persist, and then
// progress. Without Compute, one worker runs a shard's Lookup, compute
// and Persist back to back, so the interval from a missed Lookup to its
// Persist is exactly that shard's compute time; the traced benchmark
// runs measure shards that way and rely on it.
type RunOptions struct {
	// Workers bounds the worker pool. Zero means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, receives one call per finished point in
	// ascending point order. Calls are serialized by the pipeline's
	// progress tracker.
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
	// Compute, when non-nil, computes the lookup misses somewhere other
	// than the local pool (the sweep service's remote workers). It is
	// called once per round with the misses' shard indices, and calls
	// done(k, runs) once for each position k of indices it computed;
	// done checks and persists the shard and reports progress, and its
	// error must abort Compute. It returns the positions it gave up on
	// (never one it passed to done), and the pipeline computes those on
	// its own pool. done may be called concurrently.
	Compute func(ctx context.Context, spec Spec, indices []int,
		done func(k int, runs []LERResult) error) (rest []int, err error)
}

// shardRunner resolves the shards of one pipeline run: one reusable
// stack per worker for the QPDO engine, one lazily compiled immutable
// frame engine per point. The spec's code and engine pick the stack's
// QEC layer and the frame engine; nothing else in the pipeline depends
// on them.
type shardRunner struct {
	spec     Spec
	cfg      SweepConfig
	opt      RunOptions
	workers  int
	pool     *stackPool
	progress *progress

	once    []sync.Once
	engines []wideEngine
	engErr  []error
}

// newShardRunner expects a Normalized, Validated spec.
func newShardRunner(spec Spec, opt RunOptions) *shardRunner {
	workers := resolveWorkers(opt.Workers)
	return &shardRunner{
		spec:     spec,
		cfg:      spec.sweepConfig(),
		opt:      opt,
		workers:  workers,
		pool:     newStackPool(workers),
		progress: newProgress(spec, opt.Progress),
		once:     make([]sync.Once, len(spec.PERs)),
		engines:  make([]wideEngine, len(spec.PERs)),
		engErr:   make([]error, len(spec.PERs)),
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

// lookup serves shard sh from opt.Lookup when it holds exactly sh.Count
// runs, and reports the shard's progress on a hit.
func (r *shardRunner) lookup(sh Shard) ([]LERResult, bool) {
	if r.opt.Lookup == nil {
		return nil, false
	}
	rs, ok := r.opt.Lookup(sh)
	if !ok || len(rs) != sh.Count {
		return nil, false
	}
	r.progress.retire(sh.Point, 1)
	return rs, true
}

// finish checks a computed shard's run count, hands the runs to
// opt.Persist and reports the shard's progress.
func (r *shardRunner) finish(sh Shard, rs []LERResult) error {
	if len(rs) != sh.Count {
		return fmt.Errorf("shard %d: computed %d runs, want %d", sh.Index, len(rs), sh.Count)
	}
	if r.opt.Persist != nil {
		if err := r.opt.Persist(sh, rs); err != nil {
			return fmt.Errorf("persist shard %d: %w", sh.Index, err)
		}
	}
	r.progress.retire(sh.Point, 1)
	return nil
}

// compute runs shard sh on worker w and finishes it.
func (r *shardRunner) compute(w int, sh Shard) ([]LERResult, error) {
	rs, err := r.run(w, sh)
	if err != nil {
		return nil, err
	}
	return rs, r.finish(sh, rs)
}

// round resolves the shards named by idx and returns their runs,
// indexed like idx. Without opt.Compute each worker runs a shard's whole
// step; with it, the pool runs the lookups, Compute gets the misses, and
// the positions it gives back are computed on the pool. Cancelling ctx
// stops handing out shards; shards persisted before the cancel remain
// valid for resume.
func (r *shardRunner) round(ctx context.Context, idx []int) ([][]LERResult, error) {
	out := make([][]LERResult, len(idx))
	remote := r.opt.Compute != nil
	var missed []bool
	if remote {
		missed = make([]bool, len(idx))
	}
	err := forEachShardWorkerCtx(ctx, len(idx), r.workers, func(w, k int) error {
		sh := r.spec.Shard(idx[k])
		var ok bool
		if out[k], ok = r.lookup(sh); ok {
			return nil
		}
		if remote {
			missed[k] = true
			return nil
		}
		var err error
		out[k], err = r.compute(w, sh)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !remote {
		return out, nil
	}
	var pos, misses []int // the misses' positions in idx, and their shard indices
	for k, m := range missed {
		if m {
			pos = append(pos, k)
			misses = append(misses, idx[k])
		}
	}
	if len(misses) == 0 {
		return out, nil
	}
	rest, err := r.opt.Compute(ctx, r.spec, misses, func(j int, rs []LERResult) error {
		out[pos[j]] = rs
		return r.finish(r.spec.Shard(misses[j]), rs)
	})
	if err != nil {
		return nil, err
	}
	err = forEachShardWorkerCtx(ctx, len(rest), r.workers, func(w, j int) error {
		k := pos[rest[j]]
		var err error
		out[k], err = r.compute(w, r.spec.Shard(idx[k]))
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunSpec executes a sweep spec: every shard is looked up (opt.Lookup),
// or computed (locally, or through opt.Compute) and handed to
// opt.Persist, then the per-shard runs are folded into PointResults.
//
// The sweep runs in rounds of shard indices, and a full sweep is one
// round. An adaptive round (AdaptRelWidth > 0) takes the next
// AdaptBatch samples' worth of shards of every open point; a point
// closes when all its shards are handed out or when the stop rule holds
// on its own finished shards. The rule reads only that point's
// batches, so the set of computed shards, and hence the fold, is the
// same for any worker count, Lookup hit pattern, Compute backend and
// completion order: each shard's runs are a pure function of its
// ShardConfig. Cancelling ctx stops handing out shards and returns
// ctx.Err(); shards persisted before the cancel remain valid for resume.
func RunSpec(ctx context.Context, spec Spec, opt RunOptions) ([]PointResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := newShardRunner(spec, opt)
	spp, batch := spec.shardsPerPoint(), spec.roundShards()
	runs := make([][]LERResult, spec.NumShards())
	next := make([]int, len(spec.PERs)) // per point: shards handed out
	for {
		var idx []int
		for p := range next {
			for end := min(next[p]+batch, spp); next[p] < end; next[p]++ {
				idx = append(idx, p*spp+next[p])
			}
		}
		if len(idx) == 0 {
			return FoldShards(spec, runs), nil
		}
		out, err := r.round(ctx, idx)
		if err != nil {
			return nil, err
		}
		for k, i := range idx {
			runs[i] = out[k]
		}
		for p, k := range next {
			if k < spp && spec.converged(runs[p*spp:p*spp+k]) {
				r.progress.retire(p, spp-k) // the shards it never runs
				next[p] = spp
			}
		}
	}
}

// roundShards is the number of shards an open point takes per round:
// all of them for a full sweep; for an adaptive one, AdaptBatch samples'
// worth, at least one shard (frame-engine shards carry up to 64·Lanes
// samples). It expects a Normalized spec.
func (s Spec) roundShards() int {
	if s.AdaptRelWidth <= 0 {
		return s.shardsPerPoint()
	}
	if !s.batchEngine() {
		return max(s.AdaptBatch, 1)
	}
	span := 64 * s.lanes()
	return max((s.AdaptBatch+span-1)/span, 1)
}

// converged is the adaptive stop rule over one point's finished shards:
// at least AdaptMinSamples samples, at least one logical error (an
// all-zero pool has no width to converge and pins lo = 0 anyway), and a
// 95% Wilson half-width of the pooled (m, R) within AdaptRelWidth of the
// pooled rate.
func (s Spec) converged(runs [][]LERResult) bool {
	var m, r int64
	n := 0
	for _, rs := range runs {
		for i := range rs {
			m += int64(rs[i].LogicalErrors)
			r += int64(rs[i].Windows)
		}
		n += len(rs)
	}
	if n < s.AdaptMinSamples || m == 0 {
		return false
	}
	phat := float64(m) / float64(r)
	return stats.WilsonHalfWidth(m, r, wilsonZ95) <= s.AdaptRelWidth*phat
}

// progress announces finished points strictly in ascending order: point
// p is announced once every one of its shards is resolved or retired and
// every earlier point is announced, so callers observe the same call
// sequence whatever the worker count, backend or completion order. A nil
// *progress (no subscriber) ignores every call.
type progress struct {
	mu        sync.Mutex
	pers      []float64
	remaining []int
	next      int
	fn        func(point int, per float64)
}

// newProgress builds the tracker of a Normalized spec, announcing the
// points of a shardless sweep (Samples 0) at once.
func newProgress(spec Spec, fn func(point int, per float64)) *progress {
	if fn == nil {
		return nil
	}
	t := &progress{pers: spec.PERs, remaining: make([]int, len(spec.PERs)), fn: fn}
	for p := range t.remaining {
		t.remaining[p] = spec.shardsPerPoint()
	}
	t.retire(0, 0)
	return t
}

// retire marks n shards of point p finished, announcing every newly
// finished point in ascending order. fn runs under the mutex: that is
// what serializes the calls and keeps them in order.
func (t *progress) retire(p, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.remaining[p] -= n
	for t.next < len(t.pers) && t.remaining[t.next] == 0 {
		t.fn(t.next, t.pers[t.next])
		t.next++
	}
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
