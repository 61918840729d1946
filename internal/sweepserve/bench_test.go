package sweepserve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweepstore"
)

// The dispatch path is not where shards get computed — it is where they
// get routed. These benches measure that routing overhead end to end
// (JSON batch round-trips over loopback HTTP, key cross-checks, store
// writes, fold) against the same sweep run through the in-process
// cached pipeline, so the wire tax per shard is a number, not a vibe.

func benchSpec() experiments.Spec {
	return experiments.Spec{
		Engine:           "stack",
		PERs:             []float64{2e-3, 5e-3},
		Samples:          4,
		ErrorType:        "x",
		WithPauliFrame:   true,
		MaxLogicalErrors: 2,
		MaxWindows:       200,
		BaseSeed:         99,
	}
}

func benchDispatcher(b *testing.B, peers []string, batch int) *Dispatcher {
	b.Helper()
	d, err := NewDispatcher(DispatchOptions{
		Peers: peers, BatchSize: batch, InFlight: 2, Retries: 1,
		Timeout: time.Minute, Backoff: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDispatchRemote runs the full distributed path: coordinator
// store, one loopback worker, four-shard batches. Each iteration uses a
// fresh store so every shard travels.
func BenchmarkDispatchRemote(b *testing.B) {
	spec := benchSpec()
	peers := startBenchWorkers(b, 1)
	d := benchDispatcher(b, peers, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := sweepstore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := runDispatched(d, st, spec, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchLocalPipeline is the same sweep through the
// in-process cached pipeline — the baseline the remote path is
// measured against.
func BenchmarkDispatchLocalPipeline(b *testing.B) {
	spec := benchSpec()
	cfg, err := spec.SweepConfig()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Workers = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := sweepstore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sweepstore.RunCached(context.Background(), st, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchWarmCache measures the dispatcher's cache-resolve
// path: every shard is a store hit, nothing travels. This bounds the
// coordinator-side overhead of re-running a finished sweep distributed.
func BenchmarkDispatchWarmCache(b *testing.B) {
	spec := benchSpec()
	peers := startBenchWorkers(b, 1)
	d := benchDispatcher(b, peers, 4)
	st, err := sweepstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := runDispatched(d, st, spec, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runDispatched(d, st, spec, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// startBenchWorkers is startWorkers for benchmarks (no testing.T).
func startBenchWorkers(b *testing.B, n int) []string {
	b.Helper()
	urls := make([]string, n)
	for i := range urls {
		ws := httptest.NewServer(NewWorker(WorkerOptions{Workers: 2}))
		b.Cleanup(ws.Close)
		urls[i] = ws.URL
	}
	return urls
}
