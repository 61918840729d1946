package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func TestShardSeedDistinctAndStable(t *testing.T) {
	const points, samples = 64, 64
	seen := make(map[int64][2]int, points*samples)
	for p := 0; p < points; p++ {
		for s := 0; s < samples; s++ {
			seed := ShardSeed(2017, p, s)
			if prev, dup := seen[seed]; dup {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d) both map to %d",
					prev[0], prev[1], p, s, seed)
			}
			seen[seed] = [2]int{p, s}
			if again := ShardSeed(2017, p, s); again != seed {
				t.Fatalf("ShardSeed(2017,%d,%d) unstable: %d then %d", p, s, seed, again)
			}
		}
	}
	// Different bases must decorrelate the whole grid.
	if ShardSeed(1, 3, 5) == ShardSeed(2, 3, 5) {
		t.Error("different bases produced the same shard seed")
	}
}

func TestShardSeedConcurrentStable(t *testing.T) {
	// ShardSeed is a pure function: hammer it from many goroutines and
	// require the single-threaded answers (also exercises -race).
	want := ShardSeed(99, 7, 11)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if got := ShardSeed(99, 7, 11); got != want {
					t.Errorf("concurrent ShardSeed = %d, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(4); got != 4 {
		t.Errorf("resolveWorkers(4) = %d", got)
	}
	if got := resolveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("resolveWorkers(0) = %d, want GOMAXPROCS", got)
	}
	if got := resolveWorkers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("resolveWorkers(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestForEachShardCoversAllJobs(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 50} {
		const n = 37
		hits := make([]int, n)
		var mu sync.Mutex
		err := forEachShard(n, workers, func(i int) error {
			mu.Lock()
			hits[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachShardReturnsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	other := errors.New("other")
	err := forEachShard(4, 1, func(i int) error {
		switch i {
		case 1:
			return boom
		case 2:
			return other // never reached serially; pool stops at job 1
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}

// sweepTestConfig is small enough for -race yet noisy enough that every
// sample terminates on MaxLogicalErrors rather than the window cap.
func sweepTestConfig(workers int) SweepConfig {
	return SweepConfig{
		PERs:             []float64{3e-3, 6e-3, 9e-3},
		Samples:          4,
		MaxLogicalErrors: 3,
		MaxWindows:       20000,
		BaseSeed:         2017,
		Workers:          workers,
	}
}

// TestSweepDeterministicAcrossWorkers is the headline determinism
// guarantee: RunSweep output is bit-identical for Workers=1 and
// Workers=8 at a fixed BaseSeed (run under -race in CI).
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	serial, err := RunSweep(sweepTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(sweepTestConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Workers=1 and Workers=8 diverged:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
	// Sanity: the runs actually did statistics.
	for _, pt := range serial {
		if len(pt.LERs) != 4 || pt.MeanLER() <= 0 {
			t.Fatalf("degenerate point: %+v", pt)
		}
	}
}

func TestSweepProgressOrderedAndSerialized(t *testing.T) {
	cfg := sweepTestConfig(8)
	// Plain (unsynchronized) variables: the race detector flags any
	// Progress call that is not serialized through the collector.
	var order []int
	var pers []float64
	cfg.Progress = func(point int, per float64) {
		order = append(order, point)
		pers = append(pers, per)
	}
	if _, err := RunSweep(cfg); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(cfg.PERs) {
		t.Fatalf("progress calls = %d, want %d (order %v)", len(order), len(cfg.PERs), order)
	}
	for i, p := range order {
		if p != i {
			t.Fatalf("progress out of order: %v", order)
		}
		if pers[i] != cfg.PERs[i] {
			t.Fatalf("progress PER mismatch at %d: %v vs %v", i, pers[i], cfg.PERs[i])
		}
	}
}

func TestSweepProgressWithZeroSamples(t *testing.T) {
	cfg := SweepConfig{PERs: []float64{1e-3, 2e-3}, Samples: 0, BaseSeed: 1}
	var order []int
	cfg.Progress = func(point int, per float64) { order = append(order, point) }
	pts, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(pts[0].LERs) != 0 {
		t.Fatalf("zero-sample sweep: %+v", pts)
	}
	if !reflect.DeepEqual(order, []int{0, 1}) {
		t.Fatalf("zero-sample progress order: %v", order)
	}
}

func TestNegativeSamplesAreEmptyNotPanic(t *testing.T) {
	pts, err := RunSweep(SweepConfig{PERs: []float64{1e-3}, Samples: -2, BaseSeed: 1})
	if err != nil || len(pts) != 1 || len(pts[0].LERs) != 0 {
		t.Fatalf("negative-sample sweep: %+v, %v", pts, err)
	}
}

// TestRunComputationLERPairDeterministicAcrossWorkers: RunLERs over
// the two-star computation with the frame off and on, seeded like
// cmd/compute, returns the same pair for any worker count.
func TestRunComputationLERPairDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("two-star computation runs skipped in -short mode")
	}
	var cfgs []LERConfig
	for i, pf := range []bool{false, true} {
		cfgs = append(cfgs, LERConfig{
			Code: CodeComputation, PER: 3e-3, WithPauliFrame: pf,
			MaxLogicalErrors: 2, MaxWindows: 20000, Seed: ShardSeed(5, i, 0),
		})
	}
	r1, err := RunLERs(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunLERs(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	w1, p1, w2, p2 := r1[0], r1[1], r2[0], r2[1]
	if w1 != w2 || p1 != p2 {
		t.Fatalf("pair diverged across worker counts:\n%+v vs %+v\n%+v vs %+v", w1, w2, p1, p2)
	}
	if w1.Windows == 0 || p1.Windows == 0 {
		t.Fatal("degenerate computation runs")
	}
}

// TestRunGenericLERSweepDeterministicAcrossWorkers: RunLERs over plane
// runs at d = 3, 3, 5, seeded like cmd/dsweep, returns the same results
// for any worker count, and a repeated distance reproduces its result.
func TestRunGenericLERSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("distance sweep skipped in -short mode")
	}
	cfgs := planeSweep(LERConfig{PER: 5e-3, MaxLogicalErrors: 2, MaxWindows: 5000}, 11, 3, 3, 5)
	serial, err := RunLERs(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunLERs(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("generic sweep diverged across worker counts:\n%+v\n%+v", serial, parallel)
	}
	// Same distance, same base seed → same shard seed → identical runs.
	if serial[0] != serial[1] {
		t.Error("repeated distance should reproduce the identical result")
	}
}
