// Package sweepserve is the HTTP/JSON sweep service behind cmd/sweepd:
// networked, crash-safe access to the deterministic sweep pipeline.
// Submitted specs are content-addressed (the job ID is the spec hash),
// every finished shard is checkpointed in an internal/sweepstore cache,
// and identical sub-sweeps are served from that cache instead of
// recomputed — so resubmitting a finished spec is a 100% cache hit, and
// a server restarted over the same store resumes interrupted sweeps to
// results bit-identical with an uninterrupted single-worker run.
//
// Routes:
//
//	GET  /healthz                   liveness + config-hash version
//	GET  /metrics                   plain-text counters
//	POST /v1/sweeps                 submit {"version": ..., "spec": {...}}
//	GET  /v1/sweeps/{id}            job status
//	GET  /v1/sweeps/{id}/result     folded PointResults (when done)
//	GET  /v1/sweeps/{id}/events     SSE progress stream
//	POST /v1/sweeps/{id}/resume     restart a stored job after a crash
package sweepserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/sweepstore"
)

// Options configures a Server.
type Options struct {
	// Store is the content-addressed result store (required).
	Store *sweepstore.Store
	// Workers bounds each job's worker pool. Zero means GOMAXPROCS.
	Workers int
	// Dispatch, when non-nil, fans shard compute out to its remote
	// worker set. Adaptive sweeps (sequential by construction) still run
	// through the local cached pipeline.
	Dispatch *Dispatcher
}

// Server is the sweep service. It implements http.Handler.
type Server struct {
	store    *sweepstore.Store
	workers  int
	dispatch *Dispatcher
	mux      *http.ServeMux

	mu   sync.Mutex
	jobs map[string]*job

	inflight atomic.Int64
	submits  atomic.Int64
}

// New builds a Server over opt.Store.
func New(opt Options) (*Server, error) {
	if opt.Store == nil {
		return nil, fmt.Errorf("sweepserve: nil store")
	}
	s := &Server{
		store:    opt.Store,
		workers:  opt.Workers,
		dispatch: opt.Dispatch,
		mux:      http.NewServeMux(),
		jobs:     make(map[string]*job),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/sweeps/{id}/resume", s.handleResume)
	return s, nil
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every running job (used on shutdown and in tests).
func (s *Server) Close() {
	for _, j := range s.jobList() {
		j.stop()
	}
}

// jobList snapshots the job table (map iteration stays order-free:
// callers only aggregate or fan out order-independent operations).
func (s *Server) jobList() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	return js
}

// SubmitRequest is the POST /v1/sweeps wire format. Version must match
// the server's sweepstore.Version: the config hash scheme is part of
// result semantics, and serving a cache written under another scheme
// would silently return stale results.
type SubmitRequest struct {
	Version string           `json:"version"`
	Spec    experiments.Spec `json:"spec"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ShardCounts reports a job's shard accounting.
type ShardCounts struct {
	Total    int `json:"total"`
	Computed int `json:"computed"`
	Cached   int `json:"cached"`
}

// StatusResponse is the job-status wire format.
type StatusResponse struct {
	ID         string      `json:"id"`
	State      string      `json:"state"`
	Points     int         `json:"points"`
	PointsDone int         `json:"points_done"`
	Shards     ShardCounts `json:"shards"`
	HasResult  bool        `json:"has_result"`
	Error      string      `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// An encode error here means the client hung up; there is no one
	// left to report it to.
	//qa:allow errcheck client disconnect mid-response is unactionable
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBytes caps the body of a submit or shard-batch request. A
// spec is a few hundred bytes and a dispatched batch adds at most 8
// bytes per shard index, so any batch of up to 100 000 shards fits.
const maxRequestBytes = 1 << 20

// decodeStatus is the status of a request whose body failed to decode:
// 413 when it ran past maxRequestBytes, 400 otherwise.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status":  "ok",
		"version": sweepstore.Version,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var running, done, failed int
	var computed, cached int
	for _, j := range s.jobList() {
		st := j.snapshot()
		switch st.State {
		case stateRunning:
			running++
		case stateDone:
			done++
		case stateFailed:
			failed++
		}
		computed += st.Shards.Computed
		cached += st.Shards.Cached
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "sweepd_jobs_inflight %d\n", s.inflight.Load())
	fmt.Fprintf(&buf, "sweepd_jobs_running %d\n", running)
	fmt.Fprintf(&buf, "sweepd_jobs_done %d\n", done)
	fmt.Fprintf(&buf, "sweepd_jobs_failed %d\n", failed)
	fmt.Fprintf(&buf, "sweepd_submits_total %d\n", s.submits.Load())
	fmt.Fprintf(&buf, "sweepd_shards_computed %d\n", computed)
	fmt.Fprintf(&buf, "sweepd_shards_cached %d\n", cached)
	writeStoreMetrics(&buf, "sweepd", s.store)
	if d := s.dispatch; d != nil {
		ds := d.Stats()
		fmt.Fprintf(&buf, "sweepd_dispatch_peers %d\n", len(d.Peers()))
		fmt.Fprintf(&buf, "sweepd_dispatch_batches_total %d\n", ds.Batches)
		fmt.Fprintf(&buf, "sweepd_dispatch_retries_total %d\n", ds.Retries)
		fmt.Fprintf(&buf, "sweepd_dispatch_peer_failures_total %d\n", ds.PeerFailures)
		fmt.Fprintf(&buf, "sweepd_dispatch_shards_remote %d\n", ds.RemoteShards)
		fmt.Fprintf(&buf, "sweepd_dispatch_shards_local %d\n", ds.LocalShards)
		fmt.Fprintf(&buf, "sweepd_dispatch_inflight %d\n", ds.InFlight)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	//qa:allow errcheck client disconnect mid-response is unactionable
	w.Write(buf.Bytes())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.submits.Add(1)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, decodeStatus(err), "decode submit request: %v", err)
		return
	}
	if req.Version != sweepstore.Version {
		writeError(w, http.StatusBadRequest,
			"config-hash version mismatch: client %q, server %q — results cached under one version are not valid under another; upgrade the client or server",
			req.Version, sweepstore.Version)
		return
	}
	spec := req.Spec.Normalized()
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, status, err := s.startJob(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, status, j.snapshot())
}

// startJob registers (or reuses) the job for spec and starts its run.
// A running job is returned as-is; a finished or failed one is replaced
// by a fresh run, which serves from the shard cache where possible.
func (s *Server) startJob(spec experiments.Spec) (*job, int, error) {
	id, err := sweepstore.SpecKey(spec)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok && j.running() {
		s.mu.Unlock()
		return j, http.StatusOK, nil
	}
	j := newJob(id, spec)
	s.jobs[id] = j
	s.mu.Unlock()

	// Checkpoint the spec first: a crash after this point leaves a job
	// that `sweepd resume` can restart by ID.
	if err := s.store.PutSpec(id, spec); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	go s.runJob(ctx, j)
	return j, http.StatusAccepted, nil
}

// runJob drives one sweep to a stored result: through the distributed
// dispatcher when one is configured (and the sweep is distributable),
// through the shared local cached pipeline otherwise. Both paths write
// the same shards to the same store and fold in the same index order,
// so the result bytes do not depend on the route.
func (s *Server) runJob(ctx context.Context, j *job) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	pts, err := s.runSweep(ctx, j)
	if err != nil {
		j.fail(err)
		return
	}
	if err := s.store.PutResult(j.id, pts); err != nil {
		j.fail(err)
		return
	}
	j.finish()
}

// runSweep computes a job's points. Adaptive sweeps stay local: their
// Wilson-interval stop rule decides each batch from the last one's
// counts, a sequential dependency no fan-out can honor.
func (s *Server) runSweep(ctx context.Context, j *job) ([]experiments.PointResult, error) {
	//qa:allow float-eq zero is the adaptive-off sentinel, an exact flag value not a measurement
	if s.dispatch != nil && j.spec.AdaptRelWidth == 0 {
		return s.dispatch.Run(ctx, s.store, j.spec,
			func(point int, per float64) { j.pointDone(point, per) },
			func(_ experiments.Shard, cached bool) { j.noteShard(cached) })
	}
	cfg, err := j.spec.SweepConfig()
	if err != nil {
		return nil, err
	}
	cfg.Workers = s.workers
	cfg.Progress = func(point int, per float64) { j.pointDone(point, per) }
	return sweepstore.RunCached(ctx, s.store, cfg, func(_ experiments.Shard, cached bool) {
		j.noteShard(cached)
	})
}

// jobID returns the {id} path value, answering 404 unless it is a
// content address: an ID names store entries, so it must never be able
// to name anything else, and no sweep has a malformed ID.
func jobID(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.PathValue("id")
	if !sweepstore.ValidKey(id) {
		writeError(w, http.StatusNotFound, "no sweep %q: sweep IDs are 64 lowercase hex digits", id)
		return "", false
	}
	return id, true
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	if j := s.jobByID(id); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	// Not in memory: report what the store knows (a checkpointed job
	// from a previous server life).
	spec, ok, err := s.store.GetSpec(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %s", id)
		return
	}
	_, hasResult, err := s.store.GetResultJSON(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, StatusResponse{
		ID:     id,
		State:  stateStored,
		Points: len(spec.PERs),
		Shards: ShardCounts{Total: spec.NumShards()},
		// HasResult means GET result works without resuming.
		HasResult: hasResult,
	})
}

// handleResult serves a finished sweep's results as the store holds
// them, for a job of this server life and a stored one alike: the
// server keeps no results in memory. The body is the stored JSON plus
// the newline writeJSON's encoder adds, so the bytes are those of
// encoding the results afresh.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	if j := s.jobByID(id); j != nil {
		st := j.snapshot()
		switch st.State {
		case stateFailed:
			writeError(w, http.StatusConflict, "sweep %s failed: %s", id, st.Error)
			return
		case stateRunning:
			writeError(w, http.StatusConflict, "sweep %s still running (%d/%d points)", id, st.PointsDone, st.Points)
			return
		}
	}
	body, ok, err := s.store.GetResultJSON(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no result for sweep %s", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// As in writeJSON, a write error means the client hung up.
	//qa:allow errcheck client disconnect mid-response is unactionable
	_, _ = w.Write(append(body, '\n'))
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok && j.running() {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	s.mu.Unlock()
	spec, ok, err := s.store.GetSpec(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %s (submit it first)", id)
		return
	}
	j, status, err := s.startJob(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, status, j.snapshot())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	j := s.jobByID(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "no live job for sweep %s (resume it to stream progress)", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch := j.subscribe()
	defer j.unsubscribe(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			blob, err := json.Marshal(ev.Data)
			if err != nil {
				return
			}
			//qa:allow errcheck SSE client disconnect surfaces via the request context
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, blob)
			flusher.Flush()
			if ev.Name == eventDone || ev.Name == eventFailed {
				return
			}
		}
	}
}
