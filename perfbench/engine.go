package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/framesim"
	"repro/internal/layers"
)

// deriveSeed maps the workload seed to the base seed of one sweep. Small
// base seeds only permute the XOR-packed word seeds of a point, so every
// base seed goes through the SplitMix64 mixer first.
func deriveSeed(seed int64, k int) int64 {
	return experiments.ShardSeed(seed, 0x5eed, k)
}

// opsPerCycle is how many distinct sweeps an engine workload cycles
// through; the first cycle is the digest. Each sweep takes 0.1–0.25 s,
// so a 25-second run repeats each 25 to 60 times.
const opsPerCycle = 4

// warmSeed is the workload seed of every warm-up, so a set-up does the
// same work whatever the run's seed and setup_s compares across seeds.
const warmSeed = -1

// frameThresholdSweep is one frame-threshold operation: the dense frame
// engine on SC17, X observable, Pauli frame on, 8 lane words, 4 PERs
// around the pseudo-threshold, 1024 shots per point (8 shards).
func frameThresholdSweep(seed int64, k int) experiments.Spec {
	return experiments.Spec{
		Engine:           experiments.EngineNameFrameSim,
		PERs:             []float64{1e-3, 2e-3, 4e-3, 8e-3},
		Samples:          1024,
		ErrorType:        "x",
		WithPauliFrame:   true,
		MaxLogicalErrors: 20,
		Lanes:            8,
		BaseSeed:         deriveSeed(seed, k),
	}.Normalized()
}

// sparseLowPERSweep is one sparse-lowper operation: the sparse frame
// engine below threshold, shots capped at 20000 windows, 256 shots per
// point in single 64-shot words (16 shards, 8 per worker).
func sparseLowPERSweep(seed int64, k int) experiments.Spec {
	return experiments.Spec{
		Engine:           experiments.EngineNameSparse,
		PERs:             experiments.LogSpace(1e-5, 1e-4, 4),
		Samples:          256,
		ErrorType:        "x",
		WithPauliFrame:   true,
		MaxLogicalErrors: 20,
		MaxWindows:       20000,
		BaseSeed:         deriveSeed(seed, k),
	}.Normalized()
}

func frameThresholdSpec(seed int64) any { return frameThresholdSweep(seed, 0) }
func sparseLowPERSpec(seed int64) any   { return sparseLowPERSweep(seed, 0) }

func openFrameThreshold(seed int64) (session, error) {
	return openFrame(seed, frameThresholdSweep, "framesim")
}

func openSparseLowPER(seed int64) (session, error) {
	return openFrame(seed, sparseLowPERSweep, "framesim.sparse")
}

// frameSession runs in-process sweeps of one frame engine.
type frameSession struct {
	specs  []experiments.Spec
	prefix string // per-layer metric prefix of the engine
}

func openFrame(seed int64, sweep func(int64, int) experiments.Spec, prefix string) (session, error) {
	s := &frameSession{prefix: prefix}
	for k := 0; k < opsPerCycle; k++ {
		s.specs = append(s.specs, sweep(seed, k))
	}
	// Warm-up: one shard per point on a seed outside the cycle.
	warm := sweep(warmSeed, -1)
	warm.Samples = 64 * max(warm.Lanes, 1)
	if _, err := experiments.RunSpec(context.Background(), warm, experiments.RunOptions{Workers: workers}); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return s, nil
}

func (s *frameSession) canonical() int { return opsPerCycle }
func (s *frameSession) close() error   { return nil }

// verify has nothing to re-derive: repeats of a sweep are checked
// against its first run, and the digest against the pinned one.
func (s *frameSession) verify([]opOut) ([]int, error) { return nil, nil }

func (s *frameSession) op(i int) (opOut, error) {
	k := i % len(s.specs)
	t0 := time.Now()
	pts, err := experiments.RunSpec(context.Background(), s.specs[k], experiments.RunOptions{Workers: workers})
	latency := time.Since(t0)
	if err != nil {
		return opOut{}, err
	}
	_, sum, err := sumJSON(pts)
	if err != nil {
		return opOut{}, err
	}
	return opOut{key: strconv.Itoa(k), sum: sum, windows: totalWindows(pts), latency: latency}, nil
}

func totalWindows(pts []experiments.PointResult) int64 {
	var n int64
	for _, p := range pts {
		n += p.TotalWindows
	}
	return n
}

// memDelta measures the allocations and GC cycles of fn.
type memDelta struct{ mallocs, bytes, gcs uint64 }

func (d *memDelta) around(fn func() error) error {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	d.mallocs += b.Mallocs - a.Mallocs
	d.bytes += b.TotalAlloc - a.TotalAlloc
	d.gcs += uint64(b.NumGC - a.NumGC)
	return err
}

// passTotals accumulates one traced run's layer figures over its passes.
type passTotals struct {
	passes  int
	refTime time.Duration // untraced RunSpec of the canonical ops
	repTime time.Duration // the traced replica of the same ops
	refWins int64
	mem     memDelta
	shards  shardTimes
	foldS   float64
}

// shardTimes holds the busy intervals of computed shards: from a missed
// RunOptions.Lookup to the shard's Persist.
type shardTimes struct {
	busyMS []float64
	busyS  float64
	capS   float64 // workers × sweep wall time
	count  int
}

// hookedRunSpec runs spec through RunSpec with Lookup always missing and
// Persist recording each shard's runs, so every shard's busy interval is
// observed at the pipeline's own boundary. It returns the persisted runs
// folded by the caller's fold timer.
func hookedRunSpec(t *tracer, spec experiments.Spec, pt *passTotals) ([]experiments.PointResult, error) {
	n := spec.NumShards()
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	runs := make([][]experiments.LERResult, n)
	t0 := time.Now()
	_, err := experiments.RunSpec(context.Background(), spec, experiments.RunOptions{
		Workers: workers,
		Lookup: func(sh experiments.Shard) ([]experiments.LERResult, bool) {
			starts[sh.Index] = time.Now()
			return nil, false
		},
		Persist: func(sh experiments.Shard, rs []experiments.LERResult) error {
			ends[sh.Index] = time.Now()
			runs[sh.Index] = rs
			return nil
		},
	})
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	st := &pt.shards
	sweep := t.add("experiments.sweep", 0, t0, t1)
	var children []span
	for i := range starts {
		t.add("experiments.shard", sweep, starts[i], ends[i])
		d := ends[i].Sub(starts[i])
		st.busyMS = append(st.busyMS, d.Seconds()*1e3)
		st.busyS += d.Seconds()
		st.count++
		children = append(children, span{Start: starts[i].UnixNano(), End: ends[i].UnixNano()})
	}
	st.capS += float64(workers) * t1.Sub(t0).Seconds()
	// The sweep's self time is its coordination and tail: wall time no
	// shard covered.
	self := selfTime(span{Start: t0.UnixNano(), End: t1.UnixNano()}, children)
	t.note("experiments.sweep_uncovered", time.Duration(self), time.Duration(self))

	f0 := time.Now()
	pts := experiments.FoldShards(spec, runs)
	pt.foldS += time.Since(f0).Seconds()
	return pts, nil
}

// experimentsMetrics reports the pipeline-level figures per pass.
func (pt *passTotals) experimentsMetrics(m map[string]float64) {
	n := float64(pt.passes)
	p50, _ := percentile(pt.shards.busyMS, 0.5)
	mx, _ := percentile(pt.shards.busyMS, 1)
	m["experiments.shards"] = float64(pt.shards.count) / n
	m["experiments.shard_busy_s"] = pt.shards.busyS / n
	m["experiments.shard_p50_ms"] = p50
	m["experiments.shard_max_ms"] = mx
	if pt.shards.capS > 0 {
		m["experiments.worker_idle_frac"] = 1 - pt.shards.busyS/pt.shards.capS
	}
	m["experiments.fold_s"] = pt.foldS / n
	if pt.refWins > 0 {
		m["runtime.allocs_per_window"] = float64(pt.mem.mallocs) / float64(pt.refWins)
		m["runtime.alloc_bytes_per_window"] = float64(pt.mem.bytes) / float64(pt.refWins)
	}
	m["runtime.gc_cycles"] = float64(pt.mem.gcs) / n
	if pt.refTime > 0 {
		m["trace.overhead_frac"] = pt.repTime.Seconds()/pt.refTime.Seconds() - 1
	}
}

// traced runs, per pass and per canonical sweep: the untraced RunSpec
// (the reference fold, runtime counters and the overhead baseline), the
// hooked RunSpec (pipeline metrics), and the replica driver that calls
// framesim.New and RunBatchWide under spans. Both other folds must match
// the reference byte for byte.
func (s *frameSession) traced(t *tracer, deadline time.Time) (map[string]float64, error) {
	var pt passTotals
	var lt laneTotals
	for pt.passes == 0 || time.Now().Before(deadline) {
		for k, spec := range s.specs {
			var ref []experiments.PointResult
			t0 := time.Now()
			err := pt.mem.around(func() error {
				var err error
				ref, err = experiments.RunSpec(context.Background(), spec, experiments.RunOptions{Workers: workers})
				return err
			})
			pt.refTime += time.Since(t0)
			if err != nil {
				return nil, err
			}
			pt.refWins += totalWindows(ref)
			_, want, err := sumJSON(ref)
			if err != nil {
				return nil, err
			}
			hooked, err := hookedRunSpec(t, spec, &pt)
			if err != nil {
				return nil, err
			}
			if _, got, err := sumJSON(hooked); err != nil || got != want {
				return nil, fmt.Errorf("sweep %d: hooked RunSpec fold differs from the untraced run (%v)", k, err)
			}
			t1 := time.Now()
			rep, err := s.replica(t, spec, &lt)
			pt.repTime += time.Since(t1)
			if err != nil {
				return nil, err
			}
			if _, got, err := sumJSON(rep); err != nil || got != want {
				return nil, fmt.Errorf("sweep %d: traced replica fold differs from the untraced run (%v)", k, err)
			}
		}
		pt.passes++
	}
	m := map[string]float64{}
	pt.experimentsMetrics(m)
	n := float64(pt.passes)
	compile, _ := t.total(s.prefix + ".compile")
	batch, _ := t.total(s.prefix + ".batch")
	m[s.prefix+".compile_s"] = compile / n
	m[s.prefix+".batch_s"] = batch / n
	if lt.useful > 0 {
		m[s.prefix+".ns_per_window"] = batch * 1e9 / float64(lt.useful)
		m[s.prefix+".ns_per_lane_window"] = batch * 1e9 / float64(lt.capacity)
		m[s.prefix+".lane_util"] = float64(lt.useful) / float64(lt.capacity)
	}
	return m, nil
}

// laneTotals counts shot-windows: useful ones, and the lane-window
// capacity the kernels executed (64 lanes per word for as long as the
// word's — or, dense, the batch's — longest shot ran).
type laneTotals struct {
	mu               sync.Mutex
	useful, capacity int64
}

// batchRunner is the public batch call shared by both frame engines.
type batchRunner interface {
	RunBatchWide(seeds []int64, shots int) ([]framesim.ShotResult, error)
}

// replica is the traced stand-in for RunSpec on a frame engine: it
// compiles each point's engine under a compile span, runs every shard's
// RunBatchWide under a batch span on a two-goroutine pool, and folds
// with experiments.FoldShards.
func (s *frameSession) replica(t *tracer, spec experiments.Spec, lt *laneTotals) ([]experiments.PointResult, error) {
	sparse := spec.Engine == experiments.EngineNameSparse
	root := t.lane(0)
	engines := make([]batchRunner, len(spec.PERs))
	for p, per := range spec.PERs {
		cfg := frameConfig(spec, per)
		root.begin(s.prefix + ".compile")
		var err error
		if sparse {
			engines[p], err = framesim.NewSparse(cfg)
		} else {
			engines[p], err = framesim.New(cfg)
		}
		root.end()
		if err != nil {
			root.merge()
			return nil, err
		}
	}
	root.merge()

	n := spec.NumShards()
	runs := make([][]experiments.LERResult, n)
	errs := make([]error, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			l := t.lane(0)
			defer l.merge()
			var useful, capacity int64
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				sh := spec.Shard(i)
				seeds := spec.WordSeeds(sh)
				l.begin(s.prefix + ".batch")
				rs, err := engines[sh.Point].RunBatchWide(seeds, sh.Count)
				l.end()
				if err != nil {
					errs[i] = err
					break
				}
				u, c := laneUse(rs, len(seeds), sparse)
				useful += u
				capacity += c
				runs[i] = shotsToLER(rs)
			}
			lt.mu.Lock()
			lt.useful += useful
			lt.capacity += capacity
			lt.mu.Unlock()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return experiments.FoldShards(spec, runs), nil
}

// laneUse returns a batch's useful shot-windows and the lane-windows its
// kernels executed. The dense engine propagates all words until the
// batch's last shot ends; the sparse engine runs word by word.
func laneUse(rs []framesim.ShotResult, words int, sparse bool) (useful, capacity int64) {
	var batchMax int64
	for k := 0; k < words; k++ {
		var wordMax int64
		for j := 64 * k; j < 64*(k+1) && j < len(rs); j++ {
			w := int64(rs[j].Windows)
			useful += w
			if w > wordMax {
				wordMax = w
			}
		}
		if sparse {
			capacity += 64 * wordMax
		}
		if wordMax > batchMax {
			batchMax = wordMax
		}
	}
	if !sparse {
		capacity = 64 * int64(words) * batchMax
	}
	return useful, capacity
}

// frameConfig is the engine configuration RunSpec compiles for one point
// of a frame-engine spec: the harness defaults (3 noiseless init rounds,
// the thesis' depolarizing channel) and the sweep's base seed as the
// reference seed.
func frameConfig(spec experiments.Spec, per float64) framesim.Config {
	obs := framesim.ObserveX
	if spec.ErrorType == "z" {
		obs = framesim.ObserveZ
	}
	return framesim.Config{
		Observable:       obs,
		WithPauliFrame:   spec.WithPauliFrame,
		MaxLogicalErrors: spec.MaxLogicalErrors,
		MaxWindows:       spec.MaxWindows,
		InitRounds:       3,
		Model:            layers.Depolarizing(per),
		RefSeed:          spec.BaseSeed,
	}
}

// shotsToLER converts frame shots to harness runs, deriving the LER from
// the counts exactly as the pipeline does.
func shotsToLER(rs []framesim.ShotResult) []experiments.LERResult {
	out := make([]experiments.LERResult, len(rs))
	for i, r := range rs {
		out[i] = experiments.LERResult{
			Windows:         r.Windows,
			LogicalErrors:   r.LogicalErrors,
			CorrectionGates: r.CorrectionGates,
			CorrectionSlots: r.CorrectionSlots,
			OpsIssued:       r.OpsIssued,
			SlotsIssued:     r.SlotsIssued,
			OpsExecuted:     r.OpsExecuted,
			SlotsExecuted:   r.SlotsExecuted,
			InjectedErrors:  r.InjectedErrors,
		}
	}
	experiments.NormalizeLERRuns(out)
	return out
}
