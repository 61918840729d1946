// The worker half of the distributed sweep fan-out: a Worker is a
// small HTTP service that accepts batches of shard indices for a spec,
// computes exactly those shards with the local engine stack
// (experiments.RunShardBatch — same engines, same seeds, same bits as
// the coordinator would use), and returns the runs tagged with each
// shard's content address. Results are a pure function of the shard
// configuration, so where a shard was computed is unobservable in the
// folded sweep.
//
// Routes:
//
//	GET  /healthz     liveness + config-hash version + role
//	GET  /metrics     plain-text counters
//	POST /v1/shards   compute {"version": ..., "spec": {...}, "indices": [...]}
//
// A worker may carry its own sweepstore as a local shard cache: the
// shard keys are network-portable content addresses, so a shard a
// worker computed for one coordinator is a cache hit for any other.
package sweepserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/sweepstore"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Store, when non-nil, is the worker's local shard cache. Optional:
	// a storeless worker recomputes every shard it is handed.
	Store *sweepstore.Store
	// Workers bounds the per-batch compute pool. Zero means GOMAXPROCS.
	Workers int
}

// Worker is the remote shard-compute service. It implements
// http.Handler.
type Worker struct {
	store   *sweepstore.Store
	workers int
	mux     *http.ServeMux

	batches  atomic.Int64
	computed atomic.Int64
	cached   atomic.Int64
	rejected atomic.Int64
	failed   atomic.Int64
}

// NewWorker builds a Worker.
func NewWorker(opt WorkerOptions) *Worker {
	w := &Worker{
		store:   opt.Store,
		workers: opt.Workers,
		mux:     http.NewServeMux(),
	}
	w.mux.HandleFunc("GET /healthz", w.handleHealthz)
	w.mux.HandleFunc("GET /metrics", w.handleMetrics)
	w.mux.HandleFunc("POST /v1/shards", w.handleShards)
	return w
}

// ServeHTTP dispatches to the route table.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

// ShardBatchRequest is the POST /v1/shards wire format. Version must
// match the worker's sweepstore.Version — shard results computed under
// one config-hash scheme must never satisfy a coordinator speaking
// another.
type ShardBatchRequest struct {
	Version string           `json:"version"`
	Spec    experiments.Spec `json:"spec"`
	Indices []int            `json:"indices"`
}

// ShardResult is one computed shard: its index in the spec's shard
// enumeration, its content address under the worker's config-hash
// version (the coordinator cross-checks it against its own key — a
// mismatch means the two sides disagree about what was computed), and
// the per-run results.
type ShardResult struct {
	Index int                     `json:"index"`
	Key   string                  `json:"key"`
	Runs  []experiments.LERResult `json:"runs"`
}

// ShardBatchResponse is the POST /v1/shards response: one ShardResult
// per requested index, in request order.
type ShardBatchResponse struct {
	Shards []ShardResult `json:"shards"`
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	writeJSON(rw, http.StatusOK, map[string]string{
		"status":  "ok",
		"role":    "worker",
		"version": sweepstore.Version,
	})
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "sweepworker_batches_total %d\n", w.batches.Load())
	fmt.Fprintf(&buf, "sweepworker_shards_computed %d\n", w.computed.Load())
	fmt.Fprintf(&buf, "sweepworker_shards_cached %d\n", w.cached.Load())
	fmt.Fprintf(&buf, "sweepworker_rejects_total %d\n", w.rejected.Load())
	fmt.Fprintf(&buf, "sweepworker_failures_total %d\n", w.failed.Load())
	if w.store != nil {
		writeStoreMetrics(&buf, "sweepworker", w.store)
	}
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	//qa:allow errcheck client disconnect mid-response is unactionable
	rw.Write(buf.Bytes())
}

// handleShards computes one shard batch. Validation failures are 400s,
// or 413 for a body past maxRequestBytes (the coordinator gives up on
// the batch immediately rather than retrying a request that cannot
// succeed); compute and store errors are 500s (retryable — the
// coordinator retries, fails the worker over, or hands the batch back
// to its own pipeline).
func (w *Worker) handleShards(rw http.ResponseWriter, r *http.Request) {
	w.batches.Add(1)
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req ShardBatchRequest
	if err := dec.Decode(&req); err != nil {
		w.rejected.Add(1)
		writeError(rw, decodeStatus(err), "decode shard batch: %v", err)
		return
	}
	if req.Version != sweepstore.Version {
		w.rejected.Add(1)
		writeError(rw, http.StatusBadRequest,
			"config-hash version mismatch: coordinator %q, worker %q — a shard computed under one version must not satisfy the other",
			req.Version, sweepstore.Version)
		return
	}
	spec := req.Spec.Normalized()
	if err := spec.Validate(); err != nil {
		w.rejected.Add(1)
		writeError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Indices) == 0 {
		w.rejected.Add(1)
		writeError(rw, http.StatusBadRequest, "empty shard batch")
		return
	}
	n := spec.NumShards()
	for _, i := range req.Indices {
		if i < 0 || i >= n {
			w.rejected.Add(1)
			writeError(rw, http.StatusBadRequest, "shard index %d out of range [0,%d)", i, n)
			return
		}
	}
	opt := experiments.RunOptions{}
	if w.store != nil {
		opt = sweepstore.Cache(w.store, spec, w.noteShard)
	}
	opt.Workers = w.workers
	runs, err := experiments.RunShardBatch(r.Context(), spec, req.Indices, opt)
	if err != nil {
		w.failed.Add(1)
		writeError(rw, http.StatusInternalServerError, "%v", err)
		return
	}
	resp := ShardBatchResponse{Shards: make([]ShardResult, len(req.Indices))}
	for k, i := range req.Indices {
		key, err := sweepstore.ShardKey(spec.ShardConfig(spec.Shard(i)))
		if err != nil {
			w.failed.Add(1)
			writeError(rw, http.StatusInternalServerError, "%v", err)
			return
		}
		if w.store == nil {
			w.computed.Add(1) // with a store, Cache's note counted the split
		}
		resp.Shards[k] = ShardResult{Index: i, Key: key, Runs: runs[k]}
	}
	writeJSON(rw, http.StatusOK, resp)
}

// noteShard counts one shard a store-backed worker resolved.
func (w *Worker) noteShard(_ experiments.Shard, cached bool) {
	if cached {
		w.cached.Add(1)
	} else {
		w.computed.Add(1)
	}
}

// writeStoreMetrics appends one store's counters under a metric prefix
// (shared by the coordinator's and the worker's /metrics).
func writeStoreMetrics(buf *bytes.Buffer, prefix string, st *sweepstore.Store) {
	stats := st.Stats()
	fmt.Fprintf(buf, "%s_store_shard_hits %d\n", prefix, stats.ShardHits)
	fmt.Fprintf(buf, "%s_store_shard_misses %d\n", prefix, stats.ShardMisses)
	fmt.Fprintf(buf, "%s_store_shard_writes %d\n", prefix, stats.ShardWrites)
	fmt.Fprintf(buf, "%s_store_bytes %d\n", prefix, stats.ShardBytes)
	fmt.Fprintf(buf, "%s_store_max_bytes %d\n", prefix, st.MaxBytes())
	fmt.Fprintf(buf, "%s_store_gc_runs %d\n", prefix, stats.GCRuns)
	fmt.Fprintf(buf, "%s_store_gc_evicted %d\n", prefix, stats.GCEvicted)
	fmt.Fprintf(buf, "%s_store_gc_reclaimed_bytes %d\n", prefix, stats.GCReclaimedBytes)
}
