// Shard-batch execution: the compute entry point of the distributed
// sweep fan-out. A remote worker receives an arbitrary subset of a
// spec's shard indices, computes exactly those shards with the local
// engine stack, and returns the per-shard runs — which are a pure
// function of each shard's ShardConfig, so a batch computed anywhere
// folds bit-identically into the coordinator's sweep.
package experiments

import (
	"context"
	"fmt"
)

// NormalizeLERRuns recomputes each run's derived LER ratio from its
// integer counts. The counts are the ground truth; the division is
// exact to replay, so runs that crossed a JSON boundary (the result
// store, the worker wire format) normalize to exactly the bits the
// original computation produced.
func NormalizeLERRuns(runs []LERResult) {
	for i := range runs {
		runs[i].LER = 0
		if runs[i].Windows > 0 {
			runs[i].LER = float64(runs[i].LogicalErrors) / float64(runs[i].Windows)
		}
	}
}

// RunShardBatch computes the shards of spec named by indices (in any
// order, any subset) on a bounded worker pool and returns their runs,
// indexed like indices. Each shard's runs are exactly what RunSpec
// would compute for it — same engines, same seeds, same bits — so any
// partition of a sweep's shards across any number of RunShardBatch
// calls (local or remote) reassembles into the identical fold.
//
// opt.Lookup and opt.Persist have their RunSpec semantics (a worker's
// local shard cache); opt.Progress is ignored — batches are a shard-
// not point-granular unit. Cancelling ctx abandons undistributed
// shards and returns ctx.Err().
func RunShardBatch(ctx context.Context, spec Spec, indices []int, opt RunOptions) ([][]LERResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.NumShards()
	for k, i := range indices {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("shard batch: index %d (position %d) out of range [0,%d)", i, k, n)
		}
	}
	out := make([][]LERResult, len(indices))
	workers := resolveWorkers(opt.Workers)
	runner := newShardRunner(spec, workers)
	err := forEachShardWorkerCtx(ctx, len(indices), workers, func(w, k int) error {
		rs, err := runner.step(w, spec.Shard(indices[k]), opt)
		out[k] = rs
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
