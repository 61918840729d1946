package sweepstore

import (
	"context"

	"repro/internal/experiments"
)

// Cache returns the pipeline hooks that make st a sweep's shard cache
// and checkpoint: Lookup serves a shard by its content address, and
// Persist writes every computed shard as soon as it finishes — so a
// cancelled or crashed sweep resumes from the store and folds to results
// bit-identical with an uninterrupted run. The caller sets the other
// RunOptions fields.
//
// note, when non-nil, observes each shard as it resolves (cached
// reports whether it was served from the store); like the hooks, it is
// called concurrently from worker goroutines. RunCached, the sweep
// service and its workers share these hooks.
func Cache(st *Store, spec experiments.Spec, note func(sh experiments.Shard, cached bool)) experiments.RunOptions {
	spec = spec.Normalized()
	key := func(sh experiments.Shard) (string, error) { return ShardKey(spec.ShardConfig(sh)) }
	return experiments.RunOptions{
		Lookup: func(sh experiments.Shard) ([]experiments.LERResult, bool) {
			k, err := key(sh)
			if err != nil {
				return nil, false // Persist reports the error
			}
			runs, ok := st.GetShard(k, sh.Count, sh.Seed)
			if ok && note != nil {
				note(sh, true)
			}
			return runs, ok
		},
		Persist: func(sh experiments.Shard, runs []experiments.LERResult) error {
			k, err := key(sh)
			if err != nil {
				return err
			}
			if note != nil {
				note(sh, false)
			}
			return st.PutShard(k, sh.Seed, runs)
		},
	}
}

// RunCached executes a sweep through the experiments pipeline with st's
// Cache hooks. The local CLIs (-store) run sweeps this way.
func RunCached(ctx context.Context, st *Store, cfg experiments.SweepConfig, note func(sh experiments.Shard, cached bool)) ([]experiments.PointResult, error) {
	spec := experiments.SpecOf(cfg)
	opt := Cache(st, spec, note)
	opt.Workers, opt.Progress = cfg.Workers, cfg.Progress
	return experiments.RunSpec(ctx, spec, opt)
}
