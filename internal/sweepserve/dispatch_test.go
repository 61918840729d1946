package sweepserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweepstore"
)

// partitionSpec is a sweep with enough shards (15) to partition in
// interesting ways while staying fast to compute.
func partitionSpec() experiments.Spec {
	return experiments.Spec{
		Engine:           "stack",
		PERs:             []float64{2e-3, 5e-3, 1e-2},
		Samples:          5,
		ErrorType:        "x",
		WithPauliFrame:   true,
		MaxLogicalErrors: 3,
		MaxWindows:       400,
		BaseSeed:         7,
	}
}

// serialReference computes the sweep the canonical way: one local
// worker, no cache, no network.
func serialReference(t *testing.T, spec experiments.Spec) ([]experiments.PointResult, []byte) {
	t.Helper()
	cfg, err := spec.SweepConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	pts, err := experiments.RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	return pts, blob
}

// failFirstN wraps a worker handler so its first n /v1/shards requests
// fail with a 500 mid-fleet — the retried-worker leg of the partition
// property.
type failFirstN struct {
	inner http.Handler
	n     atomic.Int64
}

func (f *failFirstN) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shards" && f.n.Add(-1) >= 0 {
		http.Error(w, "injected mid-batch failure", http.StatusInternalServerError)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// startWorkers brings up n loopback workers; index 0 optionally fails
// its first failFirst batch requests before recovering.
func startWorkers(t *testing.T, n int, failFirst int64) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		var h http.Handler = NewWorker(WorkerOptions{Workers: 2})
		if i == 0 && failFirst > 0 {
			f := &failFirstN{inner: h}
			f.n.Store(failFirst)
			h = f
		}
		ws := httptest.NewServer(h)
		t.Cleanup(ws.Close)
		urls[i] = ws.URL
	}
	return urls
}

func newDispatcher(t *testing.T, opt DispatchOptions) *Dispatcher {
	t.Helper()
	if opt.Timeout == 0 {
		opt.Timeout = 30 * time.Second
	}
	if opt.Backoff == 0 {
		opt.Backoff = time.Millisecond
	}
	d, err := NewDispatcher(opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDispatchPartitionProperty is the distribution contract as a
// property: for any worker count, batch size, and failure interleaving
// (one worker failing its first requests and being retried), the
// dispatched sweep folds byte-identically to the serial local run — for
// the SC17 spec and for its Steane twin, which needs no service code of
// its own.
func TestDispatchPartitionProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed e2e skipped in -short mode")
	}
	steane := partitionSpec()
	steane.Code = experiments.CodeNameSteane
	inputs := []struct {
		prefix string
		spec   experiments.Spec
	}{
		{"", partitionSpec()},
		{"steane_", steane},
	}

	cases := []struct {
		name      string
		workers   int
		batch     int
		inflight  int
		failFirst int64
	}{
		{name: "1worker_batch1", workers: 1, batch: 1, inflight: 1},
		{name: "1worker_batch4", workers: 1, batch: 4, inflight: 2},
		{name: "2workers_batch3", workers: 2, batch: 3, inflight: 2},
		{name: "3workers_batch5", workers: 3, batch: 5, inflight: 1},
		{name: "2workers_batch7_flaky", workers: 2, batch: 7, inflight: 2, failFirst: 2},
		{name: "3workers_batch1_flaky", workers: 3, batch: 1, inflight: 3, failFirst: 3},
		{name: "batch_larger_than_sweep", workers: 2, batch: 64, inflight: 2},
	}
	for _, in := range inputs {
		spec := in.spec
		want, wantBlob := serialReference(t, spec)
		for _, tc := range cases {
			t.Run(in.prefix+tc.name, func(t *testing.T) {
				peers := startWorkers(t, tc.workers, tc.failFirst)
				d := newDispatcher(t, DispatchOptions{
					Peers: peers, BatchSize: tc.batch, InFlight: tc.inflight, Retries: 3,
				})
				st, err := sweepstore.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				var points []int
				pts, err := d.Run(context.Background(), st, spec,
					func(p int, _ float64) { points = append(points, p) }, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pts, want) {
					t.Fatalf("dispatched fold diverged from serial run:\ndispatched: %+v\nserial:     %+v", pts, want)
				}
				blob, err := json.Marshal(pts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, wantBlob) {
					t.Fatal("dispatched result bytes differ from serial run")
				}
				wantPoints := []int{0, 1, 2}
				if !reflect.DeepEqual(points, wantPoints) {
					t.Fatalf("progress points %v, want %v (ascending)", points, wantPoints)
				}
				ds := d.Stats()
				if tc.failFirst > 0 && ds.Retries == 0 && ds.PeerFailures == 0 {
					t.Error("flaky worker case recorded neither retries nor failovers")
				}
				if got := ds.RemoteShards + ds.LocalShards; got != int64(spec.NumShards()) {
					t.Errorf("computed shards %d, want %d", got, spec.NumShards())
				}
			})
		}
	}
}

// TestDispatchAllPeersDeadFallsBackLocal: with every peer unreachable,
// the local fallback computes the whole sweep — identical bytes, every
// shard counted local.
func TestDispatchAllPeersDeadFallsBackLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed e2e skipped in -short mode")
	}
	spec := partitionSpec()
	want, _ := serialReference(t, spec)

	// Real listeners, closed before dispatch: connection refused.
	dead := make([]string, 2)
	for i := range dead {
		ws := httptest.NewServer(http.NotFoundHandler())
		dead[i] = ws.URL
		ws.Close()
	}
	d := newDispatcher(t, DispatchOptions{
		Peers: dead, BatchSize: 4, InFlight: 2, Retries: 1, Timeout: 5 * time.Second,
	})
	st, err := sweepstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := d.Run(context.Background(), st, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, want) {
		t.Fatal("local-fallback fold diverged from serial run")
	}
	ds := d.Stats()
	if ds.LocalShards != int64(spec.NumShards()) || ds.RemoteShards != 0 {
		t.Errorf("local=%d remote=%d, want %d/0", ds.LocalShards, ds.RemoteShards, spec.NumShards())
	}
	if ds.PeerFailures != 2 {
		t.Errorf("peer failures %d, want 2", ds.PeerFailures)
	}
}

// TestDispatchServesFromCache: shards already in the coordinator store
// never travel — a fully warm cache completes with every peer dead and
// nothing computed.
func TestDispatchServesFromCache(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed e2e skipped in -short mode")
	}
	spec := partitionSpec()
	want, _ := serialReference(t, spec)
	st, err := sweepstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache through the local pipeline.
	cfg, err := spec.SweepConfig()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweepstore.RunCached(context.Background(), st, cfg, nil); err != nil {
		t.Fatal(err)
	}

	ws := httptest.NewServer(http.NotFoundHandler())
	ws.Close() // dead on arrival: any dispatch attempt would fail over
	d := newDispatcher(t, DispatchOptions{Peers: []string{ws.URL}, BatchSize: 4, InFlight: 1, Retries: 0})
	cached := 0
	pts, err := d.Run(context.Background(), st, spec, nil,
		func(_ experiments.Shard, hit bool) {
			if hit {
				cached++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, want) {
		t.Fatal("cache-served fold diverged from serial run")
	}
	if cached != spec.NumShards() {
		t.Errorf("cached %d shards, want all %d", cached, spec.NumShards())
	}
	if ds := d.Stats(); ds.RemoteShards != 0 || ds.LocalShards != 0 {
		t.Errorf("warm cache still computed: remote=%d local=%d", ds.RemoteShards, ds.LocalShards)
	}
}

// TestDispatchRejectsAdaptive: adaptive sweeps are sequential by
// construction and must not be fanned out.
func TestDispatchRejectsAdaptive(t *testing.T) {
	d := newDispatcher(t, DispatchOptions{Peers: []string{"http://127.0.0.1:1"}, BatchSize: 1, InFlight: 1})
	st, err := sweepstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := partitionSpec()
	spec.AdaptRelWidth = 0.1
	if _, err := d.Run(context.Background(), st, spec, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "adaptive") {
		t.Fatalf("adaptive spec dispatched: err=%v", err)
	}
}

// TestDispatchOptionsValidate enumerates the rejected configurations.
func TestDispatchOptionsValidate(t *testing.T) {
	good := DispatchOptions{Peers: []string{"http://a:1", "http://b:1"}}.withDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*DispatchOptions)
		wantSub string
	}{
		{"no_peers", func(o *DispatchOptions) { o.Peers = nil }, "no worker peers"},
		{"empty_peer", func(o *DispatchOptions) { o.Peers = []string{"http://a:1", " "} }, "empty"},
		{"duplicate_peer", func(o *DispatchOptions) { o.Peers = []string{"http://a:1", "http://a:1"} }, "duplicate"},
		{"zero_batch", func(o *DispatchOptions) { o.BatchSize = -1 }, "batch size"},
		{"zero_inflight", func(o *DispatchOptions) { o.InFlight = -2 }, "in-flight"},
		{"negative_retries", func(o *DispatchOptions) { o.Retries = -1 }, "retries"},
		{"negative_timeout", func(o *DispatchOptions) { o.Timeout = -time.Second }, "timeout"},
		{"negative_backoff", func(o *DispatchOptions) { o.Backoff = -time.Second }, "backoff"},
		{"negative_workers", func(o *DispatchOptions) { o.LocalWorkers = -1 }, "local workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := good
			tc.mutate(&o)
			err := o.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantSub)
			}
		})
	}
}

// TestParsePeers covers the -peers normalization and rejections.
func TestParsePeers(t *testing.T) {
	got, err := ParsePeers("127.0.0.1:8081, http://127.0.0.1:8082/ ,https://w3.example")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://127.0.0.1:8081", "http://127.0.0.1:8082", "https://w3.example"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParsePeers = %v, want %v", got, want)
	}
	for _, bad := range []string{
		"",
		"a:1,,b:1",
		"127.0.0.1:8081,127.0.0.1:8081",
		"127.0.0.1:8081,http://127.0.0.1:8081", // duplicate after normalization
		"ftp://x:1",
	} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

// TestWorkerRejects: malformed shard batches are 400s, and the worker
// reports itself on /healthz.
func TestWorkerRejects(t *testing.T) {
	ws := httptest.NewServer(NewWorker(WorkerOptions{}))
	defer ws.Close()

	resp, err := http.Get(ws.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["role"] != "worker" || health["version"] != sweepstore.Version {
		t.Fatalf("worker healthz: %+v", health)
	}

	post := func(body string) int {
		resp, err := http.Post(ws.URL+"/v1/shards", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	specJSON, err := json.Marshal(partitionSpec())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body string
	}{
		{"stale_version", fmt.Sprintf(`{"version":"pf-sweep-v0","spec":%s,"indices":[0]}`, specJSON)},
		{"bad_spec", fmt.Sprintf(`{"version":%q,"spec":{"engine":"warp","pers":[0.1]},"indices":[0]}`, sweepstore.Version)},
		{"empty_batch", fmt.Sprintf(`{"version":%q,"spec":%s,"indices":[]}`, sweepstore.Version, specJSON)},
		{"index_out_of_range", fmt.Sprintf(`{"version":%q,"spec":%s,"indices":[99]}`, sweepstore.Version, specJSON)},
		{"negative_index", fmt.Sprintf(`{"version":%q,"spec":%s,"indices":[-1]}`, sweepstore.Version, specJSON)},
		{"unknown_field", fmt.Sprintf(`{"version":%q,"spec":%s,"indices":[0],"bogus":1}`, sweepstore.Version, specJSON)},
		{"garbage", `{`},
	}
	for _, tc := range cases {
		if code := post(tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
}

// TestWorkerStoreCache: a worker with its own store serves repeated
// batches from cache, and the second response is byte-identical.
func TestWorkerStoreCache(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed e2e skipped in -short mode")
	}
	st, err := sweepstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerOptions{Store: st, Workers: 2})
	ws := httptest.NewServer(w)
	defer ws.Close()

	spec := partitionSpec()
	body, err := json.Marshal(ShardBatchRequest{Version: sweepstore.Version, Spec: spec, Indices: []int{0, 3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	fetch := func() []byte {
		resp, err := http.Post(ws.URL+"/v1/shards", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards: status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := fetch()
	second := fetch()
	if !bytes.Equal(first, second) {
		t.Fatal("cached batch response differs from computed one")
	}
	if got := w.cached.Load(); got != 3 {
		t.Errorf("cached counter %d, want 3", got)
	}
	if got := w.computed.Load(); got != 3 {
		t.Errorf("computed counter %d, want 3", got)
	}
}

// TestRunShardBatchComposesToRunSpec: any partition of the shard index
// space, computed batch by batch, reassembles into exactly the serial
// sweep (the pure-function contract RunShardBatch exports).
func TestRunShardBatchComposesToRunSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed e2e skipped in -short mode")
	}
	spec := partitionSpec()
	want, _ := serialReference(t, spec)
	n := spec.NumShards()

	for _, batch := range []int{1, 4, n} {
		runs := make([][]experiments.LERResult, n)
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			indices := make([]int, 0, hi-lo)
			// Reverse order within the batch: index order must not matter.
			for i := hi - 1; i >= lo; i-- {
				indices = append(indices, i)
			}
			got, err := experiments.RunShardBatch(context.Background(), spec, indices, experiments.RunOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for k, i := range indices {
				runs[i] = got[k]
			}
		}
		pts := experiments.FoldShards(spec, runs)
		if !reflect.DeepEqual(pts, want) {
			t.Fatalf("batch=%d: composed fold diverged from serial sweep", batch)
		}
	}
}

// TestServerDistributedEndToEnd drives the whole distributed stack
// through HTTP: a coordinator with two loopback workers (one flaky)
// completes a submitted sweep with result bytes identical to a
// single-machine single-worker server over a fresh store.
func TestServerDistributedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed e2e skipped in -short mode")
	}
	spec := partitionSpec()

	// Reference: an ordinary local server, one worker.
	_, ref := newTestServer(t, t.TempDir(), 1)
	refID := submit(t, ref.URL, spec).ID
	waitDone(t, ref.URL, refID)
	_, wantRaw := getResult(t, ref.URL, refID)

	// Distributed: coordinator + two workers, the first failing its
	// first batch request before recovering.
	peers := startWorkers(t, 2, 1)
	st, err := sweepstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d := newDispatcher(t, DispatchOptions{Peers: peers, BatchSize: 2, InFlight: 2, Retries: 2})
	srv, err := New(Options{Store: st, Workers: 1, Dispatch: d})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	id := submit(t, ts.URL, spec).ID
	if id != refID {
		t.Fatalf("distributed job ID %s, reference %s", id, refID)
	}
	final := waitDone(t, ts.URL, id)
	if final.Shards.Computed != spec.NumShards() {
		t.Errorf("computed %d shards, want %d", final.Shards.Computed, spec.NumShards())
	}
	_, raw := getResult(t, ts.URL, id)
	if !bytes.Equal(raw, wantRaw) {
		t.Fatal("distributed result bytes differ from single-machine run")
	}

	// The dispatch counters surface on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		"sweepd_dispatch_peers 2",
		"sweepd_dispatch_batches_total",
		"sweepd_dispatch_shards_remote",
		"sweepd_store_bytes",
		"sweepd_store_gc_runs 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
