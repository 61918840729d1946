// Adaptive rare-event sampling: the batch-granular early-stopping
// executor behind Spec.AdaptRelWidth. Points run sequentially; within a
// point, shards are computed in fixed-size batches on the worker pool,
// and after every batch barrier the pooled (m, R) counts decide — via
// the Wilson score interval — whether the point has reached its target
// relative precision. Because the decision only ever happens at batch
// boundaries and only depends on pooled results of fully computed
// batches, the set of computed shards (and hence the folded results) is
// bit-identical for any worker count.
package experiments

import (
	"context"

	"repro/internal/stats"
)

// runAdaptiveSpec executes a Normalized, Validated spec with
// AdaptRelWidth > 0. The shard enumeration, seeds, Lookup/Persist
// contract and fold are exactly those of RunSpec; the only difference is
// that trailing shards of a point that already met the precision target
// are never computed (their fold slots stay nil).
func runAdaptiveSpec(ctx context.Context, spec Spec, opt RunOptions) ([]PointResult, error) {
	spp := spec.shardsPerPoint()
	runs := make([][]LERResult, len(spec.PERs)*spp)
	workers := resolveWorkers(opt.Workers)
	runner := newShardRunner(spec, workers)

	// The stop rule is sample-granular in the spec but shard-granular in
	// execution: frame-engine shards carry up to 64·Lanes samples each.
	batchShards := spec.AdaptBatch
	if spec.batchEngine() {
		span := 64 * spec.lanes()
		batchShards = (spec.AdaptBatch + span - 1) / span
	}
	if batchShards < 1 {
		batchShards = 1
	}

	for p, per := range spec.PERs {
		base := p * spp
		for done := 0; done < spp; {
			batch := batchShards
			if done+batch > spp {
				batch = spp - done
			}
			first := base + done
			err := forEachShardWorkerCtx(ctx, batch, workers, func(w, k int) error {
				rs, err := runner.step(w, spec.Shard(first+k), opt)
				runs[first+k] = rs
				return err
			})
			if err != nil {
				return nil, err
			}
			done += batch

			// Pool m and R over every computed shard of this point and
			// stop once the Wilson interval is tight enough. The m > 0
			// guard keeps zero-error points sampling: an all-zero pool
			// has no width to converge and pins lo = 0 anyway.
			var m, r int64
			nsamp := 0
			for u := 0; u < done; u++ {
				for i := range runs[base+u] {
					m += int64(runs[base+u][i].LogicalErrors)
					r += int64(runs[base+u][i].Windows)
					nsamp++
				}
			}
			if nsamp >= spec.AdaptMinSamples && m > 0 {
				phat := float64(m) / float64(r)
				if stats.WilsonHalfWidth(m, r, wilsonZ95) <= spec.AdaptRelWidth*phat {
					break
				}
			}
		}
		if opt.Progress != nil {
			opt.Progress(p, per)
		}
	}
	return FoldShards(spec, runs), nil
}
