// Parallel Monte-Carlo execution: the LER studies are embarrassingly
// parallel — every (PER point × sample) run owns a private simulator
// stack and a private RNG — so the sweep drivers fan the runs out over a
// bounded worker pool. Seeds are derived per run with a SplitMix64-style
// shard function, which makes every result bit-identical regardless of
// worker count or completion order.
package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardSeed derives the RNG seed of one Monte-Carlo shard from the base
// seed and the shard coordinates. The (point, sample) pair is packed
// into disjoint bit ranges and pushed through the SplitMix64 finalizer;
// both steps are bijections on uint64, so distinct pairs are guaranteed
// distinct seeds (for point, sample < 2³²) and the mapping is a pure
// function of its arguments — stable across calls, goroutines, and
// process runs.
func ShardSeed(base int64, point, sample int) int64 {
	z := uint64(base) ^ (uint64(uint32(point))<<32 | uint64(uint32(sample)))
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// resolveWorkers maps a config's Workers field to a pool size: positive
// values are taken as-is, anything else defaults to GOMAXPROCS.
func resolveWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// forEachShard runs job(0..n-1) on at most workers goroutines. Jobs are
// handed out by an atomic cursor, so completion order is arbitrary —
// jobs must write their results to disjoint, index-addressed slots. On
// error the pool stops handing out new jobs and the lowest-indexed
// error among the jobs that ran is returned.
func forEachShard(n, workers int, job func(i int) error) error {
	return forEachShardWorker(n, workers, func(_, i int) error { return job(i) })
}

// forEachShardWorker is forEachShard with the worker index exposed: job
// receives (w, i) where w < workers identifies the goroutine running it.
// Jobs on the same worker run strictly sequentially, so per-worker state
// (a reusable simulator stack) needs no locking.
func forEachShardWorker(n, workers int, job func(w, i int) error) error {
	return forEachShardWorkerCtx(context.Background(), n, workers, job)
}

// forEachShardWorkerCtx is forEachShardWorker with cancellation: between
// jobs every worker checks ctx, and a cancelled context stops the pool
// from handing out new shards. Jobs already started run to completion
// (their results stay valid — the caller may have persisted them), and
// ctx.Err() is returned unless a job error takes precedence.
func forEachShardWorkerCtx(ctx context.Context, n, workers int, job func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := job(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errs   = make([]error, n)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := job(w, i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// progressCollector serializes Progress callbacks through one goroutine
// and reports points strictly in ascending order: point i is announced
// once all its samples AND all earlier points are complete, so callers
// observe the same call sequence whatever the worker count.
type progressCollector struct {
	ch   chan int
	done chan struct{}
}

func newProgressCollector(pers []float64, samples int, fn func(point int, per float64)) *progressCollector {
	c := &progressCollector{
		ch:   make(chan int, len(pers)*samples), // sends never block
		done: make(chan struct{}),
	}
	go func() {
		defer close(c.done)
		remaining := make([]int, len(pers))
		for i := range remaining {
			remaining[i] = samples
		}
		next := 0
		for p := range c.ch {
			remaining[p]--
			for next < len(pers) && remaining[next] == 0 {
				fn(next, pers[next])
				next++
			}
		}
	}()
	return c
}

// sampleDone records one finished sample of point p.
func (c *progressCollector) sampleDone(p int) { c.ch <- p }

// close drains the collector; it returns only after every pending
// Progress call has completed.
func (c *progressCollector) close() {
	close(c.ch)
	<-c.done
}

// RunGenericLERSweep runs the distance-scaling study (cmd/dsweep) with
// one worker per distance, seeding distance d with
// ShardSeed(cfg.Seed, d, 0). Results are ordered like distances.
func RunGenericLERSweep(cfg GenericLERConfig, distances []int) ([]LERResult, error) {
	out := make([]LERResult, len(distances))
	err := forEachShard(len(distances), resolveWorkers(cfg.Workers), func(i int) error {
		c := cfg
		c.Distance = distances[i]
		c.Seed = ShardSeed(cfg.Seed, distances[i], 0)
		r, err := RunGenericLER(c)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunComputationLERPair runs the two-star computation experiment with
// and without a Pauli frame concurrently (cmd/compute), seeding the
// configurations with ShardSeed(cfg.Seed, 0, 0) and ShardSeed(cfg.Seed,
// 1, 0) so either result is independent of the worker count.
func RunComputationLERPair(cfg ComputationLERConfig) (without, with LERResult, err error) {
	var out [2]LERResult
	err = forEachShard(2, resolveWorkers(cfg.Workers), func(i int) error {
		c := cfg
		c.WithPauliFrame = i == 1
		c.Seed = ShardSeed(cfg.Seed, i, 0)
		r, err := RunComputationLER(c)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	return out[0], out[1], err
}
