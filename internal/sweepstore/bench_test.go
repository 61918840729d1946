package sweepstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// The store path is not a simulation hot path, but it sits on every
// shard of every service sweep: allocation creep here multiplies by the
// shard count. The CI bench smoke runs these with -benchmem so the
// per-op footprint shows in the logs next to the kernel benches.

func benchShardConfig(i int) experiments.ShardConfig {
	return experiments.ShardConfig{
		Engine: "stack", PER: 3e-3, ErrorType: "x",
		MaxLogicalErrors: 4, MaxWindows: 3000,
		Seed: experiments.ShardSeed(2017, 0, i), Shots: 1,
	}
}

func benchRuns() []experiments.LERResult {
	return []experiments.LERResult{{
		Windows: 152, LogicalErrors: 4, LER: 4.0 / 152.0,
		CorrectionGates: 7, CorrectionSlots: 3, OpsIssued: 1000,
		SlotsIssued: 200, OpsExecuted: 996, SlotsExecuted: 198, InjectedErrors: 11,
	}}
}

// BenchmarkSweepStoreShardKey measures content-address hashing alone
// (canonical JSON + SHA-256).
func BenchmarkSweepStoreShardKey(b *testing.B) {
	sc := benchShardConfig(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ShardKey(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepStoreRoundTrip measures one full cache cycle: hash the
// shard config, persist the runs, and read them back through the
// integrity checks — the per-shard overhead a cached sweep pays.
func BenchmarkSweepStoreRoundTrip(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	runs := benchRuns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := benchShardConfig(i)
		key, err := ShardKey(sc)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.PutShard(key, sc.Seed, runs); err != nil {
			b.Fatal(err)
		}
		if _, ok := st.GetShard(key, 1, sc.Seed); !ok {
			b.Fatal("miss after put")
		}
	}
}

// BenchmarkSweepStoreHit measures the read side alone: the cost of
// serving one shard from cache (the steady state of a resumed or
// resubmitted sweep).
func BenchmarkSweepStoreHit(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	sc := benchShardConfig(0)
	key, err := ShardKey(sc)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PutShard(key, sc.Seed, benchRuns()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.GetShard(key, 1, sc.Seed); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkGCBoundArmed measures a store whose size bound is armed at
// its footprint: n shards of 64 runs each (about 1.3 KB per record, the
// size sweepd-extend shards take), puts continuing at the bound while a
// reader hits a cached shard every 100 µs. One op is one put. pass_ms is
// the mean duration of a put that ran an auto-GC pass, puts/pass the
// number of puts per pass, and get_p50_us / get_max_ms the reader's
// GetShard latencies: a pass holds the store mutex, so the longest read
// is one that waited out a pass.
func BenchmarkGCBoundArmed(b *testing.B) {
	for _, n := range []int{4000, 40000} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			st, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			rng := rand.New(rand.NewSource(1))
			runs := make([]experiments.LERResult, 64)
			for i := range runs {
				runs[i] = experiments.LERResult{Windows: 1000 + rng.Intn(4000), LogicalErrors: rng.Intn(6),
					CorrectionGates: rng.Intn(3000), CorrectionSlots: rng.Intn(1000),
					OpsIssued: 100000 + rng.Intn(400000), SlotsIssued: 10000 + rng.Intn(40000),
					OpsExecuted: 100000 + rng.Intn(400000), SlotsExecuted: 10000 + rng.Intn(40000),
					InjectedErrors: rng.Intn(500)}
			}
			key := func(i int) string {
				k, err := ShardKey(experiments.ShardConfig{Engine: "stack", PER: 1e-3, ErrorType: "x",
					MaxLogicalErrors: 4, MaxWindows: 5000, Seed: int64(i), Shots: len(runs)})
				if err != nil {
					b.Fatal(err)
				}
				return k
			}
			keys := make([]string, n+b.N)
			for i := range keys {
				keys[i] = key(i)
			}
			for i := 0; i < n; i++ {
				if err := st.PutShard(keys[i], int64(i), runs); err != nil {
					b.Fatal(err)
				}
			}
			st.SetMaxBytes(st.Stats().ShardBytes)

			stop := make(chan struct{})
			var lat []time.Duration
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(2))
				for {
					select {
					case <-stop:
						return
					default:
					}
					i := rng.Intn(n)
					t0 := time.Now()
					st.GetShard(keys[i], len(runs), int64(i))
					lat = append(lat, time.Since(t0))
					time.Sleep(100 * time.Microsecond)
				}
			}()
			var passTime time.Duration
			putPasses := 0
			gcRuns := st.Stats().GCRuns
			b.ResetTimer()
			for i := n; i < n+b.N; i++ {
				t0 := time.Now()
				if err := st.PutShard(keys[i], int64(i), runs); err != nil {
					b.Fatal(err)
				}
				if r := st.Stats().GCRuns; r > gcRuns {
					passTime += time.Since(t0)
					putPasses++
					gcRuns = r
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			if putPasses > 0 {
				b.ReportMetric(float64(passTime.Microseconds())/1e3/float64(putPasses), "pass_ms")
				b.ReportMetric(float64(b.N)/float64(st.Stats().GCRuns), "puts/pass")
			}
			if len(lat) > 0 {
				slices.Sort(lat)
				b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "get_p50_us")
				b.ReportMetric(float64(lat[len(lat)-1].Microseconds())/1e3, "get_max_ms")
			}
		})
	}
}
