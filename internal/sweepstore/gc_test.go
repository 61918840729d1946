package sweepstore

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
)

// fakeShard writes a synthetic shard with a chosen access time and
// returns its key and record size. The keys sort by their numeric
// suffix only by accident; tests that need a tie-break order set equal
// atimes explicitly.
func fakeShard(t *testing.T, st *Store, i int, atime time.Time) (string, int64) {
	t.Helper()
	key, err := ShardKey(experiments.ShardConfig{
		Engine: "stack", PER: 1e-3, ErrorType: "x",
		MaxLogicalErrors: 1, MaxWindows: 10, Seed: int64(1000 + i), Shots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := []experiments.LERResult{{Windows: 10, LogicalErrors: i}}
	if err := st.PutShard(key, int64(1000+i), runs); err != nil {
		t.Fatal(err)
	}
	setAccessTime(t, st, key, atime)
	return key, shardSize(t, st, key)
}

// indexed returns the index entry of shard key.
func indexed(st *Store, key string) (loc, bool) {
	d, _ := parseDigest(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	l, ok := st.index[ikey{kindShard, d}]
	return l, ok
}

// setAccessTime sets an indexed shard's access time, as if its last hit
// had happened at atime.
func setAccessTime(t *testing.T, st *Store, key string, atime time.Time) {
	t.Helper()
	l, ok := indexed(st, key)
	if !ok {
		t.Fatalf("shard %s is not in the store", key)
	}
	l.atime = atime.UnixNano()
	d, _ := parseDigest(key)
	st.mu.Lock()
	st.index[ikey{kindShard, d}] = l
	st.mu.Unlock()
}

// shardSize is the size of a shard's record in its segment.
func shardSize(t *testing.T, st *Store, key string) int64 {
	t.Helper()
	l, ok := indexed(st, key)
	if !ok {
		t.Fatalf("shard %s is not in the store", key)
	}
	return l.n
}

func shardOnDisk(st *Store, key string) bool {
	_, ok := indexed(st, key)
	return ok
}

// TestGCPinsSurvive: a GC to zero evicts every shard but never the
// spec/result checkpoints under jobs/ — a bounded cache must not become
// a lossy job table.
func TestGCPinsSurvive(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	id, err := SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSpec(id, spec); err != nil {
		t.Fatal(err)
	}
	pts := []experiments.PointResult{{PER: 1e-3, LERs: []float64{0.1}, WindowCounts: []float64{10}}}
	if err := st.PutResult(id, pts); err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	keys := make([]string, 4)
	for i := range keys {
		keys[i], _ = fakeShard(t, st, i, base.Add(time.Duration(i)*time.Minute))
	}

	res, err := st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != len(keys) || res.RemainingBytes != 0 {
		t.Fatalf("GC(0) = %+v, want all %d shards evicted", res, len(keys))
	}
	for _, k := range keys {
		if shardOnDisk(st, k) {
			t.Errorf("shard %s survived GC(0)", k)
		}
	}
	if _, ok, err := st.GetSpec(id); err != nil || !ok {
		t.Fatalf("spec pin evicted: ok=%v err=%v", ok, err)
	}
	gotPts, ok, err := st.GetResult(id)
	if err != nil || !ok {
		t.Fatalf("result pin evicted: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(gotPts, pts) {
		t.Fatal("result pin corrupted by GC")
	}
	if st.Stats().ShardBytes != 0 {
		t.Errorf("ShardBytes %d after full GC, want 0", st.Stats().ShardBytes)
	}
}

// TestGCDeterministicLRU: under a fixed access sequence the eviction
// set is exactly the least-recently-accessed prefix, and equal access
// times break ties by key ascending — the same inputs always evict the
// same shards.
func TestGCDeterministicLRU(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var keys []string
	var sizes []int64
	for i := 0; i < 5; i++ {
		k, sz := fakeShard(t, st, i, base.Add(time.Duration(i)*time.Hour))
		keys = append(keys, k)
		sizes = append(sizes, sz)
	}
	var total int64
	for _, sz := range sizes {
		total += sz
	}

	// Evict until the two oldest are gone: bound = total - sizes[0] - sizes[1].
	res, err := st.GC(total - sizes[0] - sizes[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 2 || res.ReclaimedBytes != sizes[0]+sizes[1] {
		t.Fatalf("GC = %+v, want 2 oldest evicted (%d bytes)", res, sizes[0]+sizes[1])
	}
	for i, k := range keys {
		if got := shardOnDisk(st, k); got != (i >= 2) {
			t.Errorf("shard %d (atime rank %d): on disk %v, want %v", i, i, got, i >= 2)
		}
	}

	// Tie-break: two shards sharing an access time evict in key order.
	st2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tie := base.Add(10 * time.Hour)
	kA, szA := fakeShard(t, st2, 0, tie)
	kB, _ := fakeShard(t, st2, 1, tie)
	lo, hi := kA, kB
	if kB < kA {
		lo, hi = kB, kA
	}
	_ = szA
	res2, err := st2.GC(st2.Stats().ShardBytes - shardSize(t, st2, lo))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Evicted != 1 {
		t.Fatalf("tie GC evicted %d, want 1", res2.Evicted)
	}
	if shardOnDisk(st2, lo) || !shardOnDisk(st2, hi) {
		t.Errorf("tie-break evicted wrong shard: lo(%s) on disk %v, hi(%s) on disk %v",
			lo, shardOnDisk(st2, lo), hi, shardOnDisk(st2, hi))
	}
}

// TestGCHitBumpsLRU: with a size bound armed, a GetShard hit moves the
// shard to the young end of the LRU order, so hot shards survive the
// next pass.
func TestGCHitBumpsLRU(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetMaxBytes(1 << 40) // arm the bound (huge: no auto-GC interference)
	base := time.Now().Add(-24 * time.Hour)
	k0, sz0 := fakeShard(t, st, 0, base)
	k1, _ := fakeShard(t, st, 1, base.Add(time.Hour))

	// Hit the older shard: its access time jumps to now, making k1 the
	// eviction candidate.
	if _, ok := st.GetShard(k0, 1, 1000); !ok {
		t.Fatal("warm shard missed")
	}
	res, err := st.GC(sz0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 1 || !shardOnDisk(st, k0) || shardOnDisk(st, k1) {
		t.Fatalf("LRU bump ignored: evicted=%d k0 on disk %v, k1 on disk %v",
			res.Evicted, shardOnDisk(st, k0), shardOnDisk(st, k1))
	}
}

// TestGCResumeRecomputesOnlyEvicted: after a GC pass evicts part of a
// finished sweep, rerunning it recomputes exactly the evicted shards
// and folds to the identical result.
func TestGCResumeRecomputesOnlyEvicted(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep e2e skipped in -short mode")
	}
	spec := testSpec()
	cfg, err := spec.SweepConfig()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCached(context.Background(), st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := spec.NumShards()

	// Age shard i by its index so eviction order is the shard order, then
	// evict roughly half.
	base := time.Now().Add(-time.Duration(n+1) * time.Hour)
	var keys []string
	for i := 0; i < n; i++ {
		key, err := ShardKey(spec.ShardConfig(spec.Shard(i)))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		setAccessTime(t, st, key, base.Add(time.Duration(i)*time.Hour))
	}
	var keep int64
	evict := n / 2
	for i := evict; i < n; i++ {
		keep += shardSize(t, st, keys[i])
	}
	res, err := st.GC(keep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != evict {
		t.Fatalf("GC evicted %d shards, want %d", res.Evicted, evict)
	}

	var computed, cached int
	got, err := RunCached(context.Background(), st, cfg, func(_ experiments.Shard, hit bool) {
		if hit {
			cached++
		} else {
			computed++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if computed != evict || cached != n-evict {
		t.Errorf("resume computed %d / cached %d, want %d / %d", computed, cached, evict, n-evict)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-GC resume diverged from the original sweep")
	}
}

// TestAutoGCEnforcesBound: with SetMaxBytes armed, writes keep the
// shard footprint at or below the bound without any explicit GC call.
func TestAutoGCEnforcesBound(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, one := fakeShard(t, st, 0, time.Now())
	limit := 3 * one // roughly three shards' worth
	st.SetMaxBytes(limit)
	base := time.Now().Add(-time.Hour)
	for i := 1; i < 10; i++ {
		k, _ := fakeShard(t, st, i, base.Add(time.Duration(i)*time.Minute))
		_ = k
		if got := st.Stats().ShardBytes; got > limit+one {
			// One write may overshoot by a shard before its GC lands, never
			// more.
			t.Fatalf("write %d: footprint %d exceeds bound %d", i, got, limit)
		}
	}
	stats := st.Stats()
	if stats.ShardBytes > limit {
		t.Errorf("final footprint %d exceeds bound %d", stats.ShardBytes, limit)
	}
	if stats.GCRuns == 0 || stats.GCEvicted == 0 {
		t.Errorf("auto-GC never ran: %+v", stats)
	}
	if got := stats.GCReclaimedBytes; got <= 0 {
		t.Errorf("reclaimed %d bytes, want > 0", got)
	}

	// A reopened store rescans to the post-GC footprint.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(st.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().ShardBytes; got != stats.ShardBytes {
		t.Errorf("reopened footprint %d, want %d", got, stats.ShardBytes)
	}
}

// TestGCRejectsNegativeBound: the explicit API mirrors the flag
// validation.
func TestGCRejectsNegativeBound(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.GC(-1); err == nil {
		t.Fatal("GC(-1) accepted")
	}
}
