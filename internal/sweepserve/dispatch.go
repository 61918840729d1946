// The coordinator half of the distributed sweep fan-out: a Dispatcher
// is the remote compute backend of the sweep pipeline
// (experiments.RunOptions.Compute). It partitions a round's lookup
// misses into batches and streams them to a configured set of remote
// workers, pipelined — each peer keeps a bounded number of batches in
// flight and pulls the next the moment one completes, so a slow peer
// never stalls the rest of the fleet behind a barrier. Failures degrade,
// never corrupt: a batch that errors is retried on its peer with
// exponential backoff, a peer that exhausts its retries is marked dead
// and its batch requeued for the survivors, and when every peer is dead
// the queued shards go back to the pipeline, which computes them on its
// own pool. The mark outlives the Compute call: later calls (the next
// round of an adaptive sweep, the next job) try a marked peer once,
// with no retry and no backoff, and its first success clears the mark,
// so a restarted worker rejoins. Because every shard's runs are a pure
// function of its ShardConfig and the fold visits shards in index
// order, the merged results are byte-identical to a local -workers 1
// run for any worker set, batch size, or failure interleaving.
package sweepserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweepstore"
)

// Dispatch tuning defaults.
const (
	// DefaultBatchSize is the number of shards per dispatched batch.
	DefaultBatchSize = 8
	// DefaultInFlight is the number of batches each peer keeps in flight.
	DefaultInFlight = 2
	// DefaultRetries is the number of re-attempts on the same peer after
	// a failed batch, before the peer is marked dead.
	DefaultRetries = 2
	// DefaultTimeout bounds one batch request.
	DefaultTimeout = 2 * time.Minute
	// DefaultBackoff is the first retry delay (doubled per retry).
	DefaultBackoff = 250 * time.Millisecond
)

// DispatchOptions configures a Dispatcher.
type DispatchOptions struct {
	// Peers are the worker base URLs (normalize with ParsePeers).
	// Required: at least one, no duplicates, no empties.
	Peers []string
	// BatchSize is the number of shards per dispatched batch (> 0).
	BatchSize int
	// InFlight bounds each peer's concurrently outstanding batches (> 0).
	InFlight int
	// Retries is the number of re-attempts on the same peer after a
	// failed batch (>= 0); after that the peer is marked dead and the
	// batch fails over.
	Retries int
	// Timeout bounds one batch request end to end (> 0).
	Timeout time.Duration
	// Backoff is the first retry delay, doubled per retry (>= 0).
	Backoff time.Duration
}

// withDefaults fills the zero-valued tuning knobs.
func (o DispatchOptions) withDefaults() DispatchOptions {
	if o.BatchSize == 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.InFlight == 0 {
		o.InFlight = DefaultInFlight
	}
	if o.Timeout == 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Backoff == 0 {
		o.Backoff = DefaultBackoff
	}
	return o
}

// Validate rejects option sets that cannot dispatch: no peers,
// duplicate or empty peer addresses, or non-positive tuning knobs. The
// flag layer calls this before any work runs (exit 2), the constructor
// re-checks it.
func (o DispatchOptions) Validate() error {
	if len(o.Peers) == 0 {
		return fmt.Errorf("dispatch: no worker peers configured")
	}
	seen := make(map[string]int, len(o.Peers))
	for i, p := range o.Peers {
		if strings.TrimSpace(p) == "" {
			return fmt.Errorf("dispatch: peer %d is empty", i)
		}
		if j, dup := seen[p]; dup {
			return fmt.Errorf("dispatch: duplicate peer %q (positions %d and %d)", p, j, i)
		}
		seen[p] = i
	}
	if o.BatchSize <= 0 {
		return fmt.Errorf("dispatch: batch size must be > 0, got %d", o.BatchSize)
	}
	if o.InFlight <= 0 {
		return fmt.Errorf("dispatch: in-flight bound must be > 0, got %d", o.InFlight)
	}
	if o.Retries < 0 {
		return fmt.Errorf("dispatch: retries must be >= 0, got %d", o.Retries)
	}
	if o.Timeout <= 0 {
		return fmt.Errorf("dispatch: timeout must be positive, got %v", o.Timeout)
	}
	if o.Backoff < 0 {
		return fmt.Errorf("dispatch: backoff must be >= 0, got %v", o.Backoff)
	}
	return nil
}

// ParsePeers splits a comma-separated worker list into normalized base
// URLs: bare host:port gets the http scheme, trailing slashes are
// trimmed, and empty or duplicate entries are rejected — the upfront
// flag validation of -peers.
func ParsePeers(list string) ([]string, error) {
	parts := strings.Split(list, ",")
	peers := make([]string, 0, len(parts))
	seen := map[string]bool{}
	for i, part := range parts {
		addr := strings.TrimSpace(part)
		if addr == "" {
			return nil, fmt.Errorf("peer %d is empty", i)
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		u, err := url.Parse(addr)
		if err != nil {
			return nil, fmt.Errorf("peer %q: %v", part, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("peer %q: scheme %q not supported (want http or https)", part, u.Scheme)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("peer %q: no host", part)
		}
		addr = strings.TrimRight(u.String(), "/")
		if seen[addr] {
			return nil, fmt.Errorf("duplicate peer %q", addr)
		}
		seen[addr] = true
		peers = append(peers, addr)
	}
	return peers, nil
}

// DispatchStats is a snapshot of the dispatcher's monotonic counters
// (and the current in-flight gauge).
type DispatchStats struct {
	// Batches counts successfully applied batches; Retries re-attempts
	// after failed requests; PeerFailures deaths: a peer counts once
	// each time it goes from live to marked dead, not again for every
	// failed try while marked.
	Batches      int64
	Retries      int64
	PeerFailures int64
	// RemoteShards / LocalShards split computed shards by where they ran:
	// LocalShards are those handed back to the pipeline once every peer
	// was dead.
	RemoteShards int64
	LocalShards  int64
	// InFlight is the number of batch requests currently outstanding.
	InFlight int64
}

// Dispatcher fans shard batches out to remote workers. One Dispatcher
// serves every job of a Server; its counters aggregate across jobs.
type Dispatcher struct {
	opt    DispatchOptions
	client *http.Client
	// marked flags, by position in opt.Peers, the peers that exhausted
	// their retries and have not answered a batch since.
	marked []atomic.Bool

	batches, retries, failures atomic.Int64
	remoteShards, localShards  atomic.Int64
	inflight                   atomic.Int64
}

// NewDispatcher validates opt and builds a Dispatcher.
func NewDispatcher(opt DispatchOptions) (*Dispatcher, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return &Dispatcher{opt: opt, client: &http.Client{}, marked: make([]atomic.Bool, len(opt.Peers))}, nil
}

// Peers returns the configured worker set.
func (d *Dispatcher) Peers() []string { return d.opt.Peers }

// Stats returns a snapshot of the dispatch counters.
func (d *Dispatcher) Stats() DispatchStats {
	return DispatchStats{
		Batches:      d.batches.Load(),
		Retries:      d.retries.Load(),
		PeerFailures: d.failures.Load(),
		RemoteShards: d.remoteShards.Load(),
		LocalShards:  d.localShards.Load(),
		InFlight:     d.inflight.Load(),
	}
}

// Compute is the pipeline's remote compute backend (assign it to
// experiments.RunOptions.Compute): it streams the shards named by
// indices to the worker set in batches and hands every verified shard to
// done. When every peer is dead it returns the positions still queued,
// which the pipeline computes on its own pool.
func (d *Dispatcher) Compute(ctx context.Context, spec experiments.Spec, indices []int,
	done func(k int, runs []experiments.LERResult) error) ([]int, error) {
	if len(indices) == 0 {
		return nil, nil
	}
	size := d.opt.BatchSize
	nb := (len(indices) + size - 1) / size
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &dispatchRun{
		d: d, spec: spec, indices: indices, done: done,
		// Every batch is either queued or held by exactly one goroutine,
		// so cap nb makes requeues non-blocking.
		queue:    make(chan batch, nb),
		finished: make(chan struct{}),
		cancel:   cancel,
	}
	r.pending.Store(int64(nb))
	for lo := 0; lo < len(indices); lo += size {
		r.queue <- batch{lo, min(lo+size, len(indices))}
	}

	var wg sync.WaitGroup
	for i, peer := range d.opt.Peers {
		ps := &peerState{run: r, url: peer, marked: &d.marked[i]}
		slots := d.opt.InFlight
		if ps.marked.Load() {
			slots = 1 // one probe, see process
		}
		for slot := 0; slot < slots; slot++ {
			wg.Add(1)
			go ps.loop(runCtx, &wg)
		}
	}
	wg.Wait()

	if err := r.loadErr(); err != nil {
		return nil, err
	}
	if r.pending.Load() == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The peer loops stop early only when every peer is dead.
	var rest []int
	for len(r.queue) > 0 {
		b := <-r.queue
		for k := b.lo; k < b.hi; k++ {
			rest = append(rest, k)
		}
	}
	d.localShards.Add(int64(len(rest)))
	return rest, nil
}

// batch is one dispatched unit: the positions lo..hi-1 of a Compute
// call's indices.
type batch struct{ lo, hi int }

// dispatchRun is the dispatch state of one Compute call, shared by the
// peer slots.
type dispatchRun struct {
	d       *Dispatcher
	spec    experiments.Spec
	indices []int
	done    func(k int, runs []experiments.LERResult) error

	queue    chan batch
	pending  atomic.Int64
	finished chan struct{} // closed when pending hits zero
	cancel   context.CancelFunc

	errMu sync.Mutex
	err   error
}

// fail records the first fatal error and cancels the run.
func (r *dispatchRun) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.cancel()
}

func (r *dispatchRun) loadErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// requeue puts a batch back for another holder. The queue is sized for
// every batch, so this never blocks.
func (r *dispatchRun) requeue(b batch) { r.queue <- b }

// apply verifies one batch response end to end, then hands every shard
// to done. Verify-all-then-apply keeps a malformed response side-effect
// free: a batch is either fully applied once or fully retried, so no
// shard is ever double-counted. A done error (a store write failure) is
// fatal (r.fail) — the cache is the job's checkpoint.
func (r *dispatchRun) apply(b batch, resp *ShardBatchResponse) error {
	if len(resp.Shards) != b.hi-b.lo {
		return fmt.Errorf("batch of %d shards answered with %d", b.hi-b.lo, len(resp.Shards))
	}
	for j, sr := range resp.Shards {
		i := r.indices[b.lo+j]
		sh := r.spec.Shard(i)
		if sr.Index != i {
			return fmt.Errorf("shard %d answered out of order (got index %d)", i, sr.Index)
		}
		key, err := sweepstore.ShardKey(r.spec.ShardConfig(sh))
		if err != nil {
			return err
		}
		if sr.Key != key {
			return fmt.Errorf("shard %d: content address mismatch (worker %s, coordinator %s)", i, sr.Key, key)
		}
		if len(sr.Runs) != sh.Count {
			return fmt.Errorf("shard %d: %d runs, want %d", i, len(sr.Runs), sh.Count)
		}
	}
	for j, sr := range resp.Shards {
		experiments.NormalizeLERRuns(sr.Runs)
		if err := r.done(b.lo+j, sr.Runs); err != nil {
			r.fail(err)
			return nil
		}
		r.d.remoteShards.Add(1)
	}
	r.d.batches.Add(1)
	if r.pending.Add(-1) == 0 {
		close(r.finished)
	}
	return nil
}

// peerState is one remote worker's dispatch state in one Compute
// call, shared by its InFlight slots.
type peerState struct {
	run *dispatchRun
	url string
	// dead stops this call's slots; marked is the Dispatcher's mark,
	// which later calls read.
	dead   atomic.Bool
	marked *atomic.Bool
}

// loop pulls batches for this peer until the run completes, the context
// cancels, or the peer dies.
func (p *peerState) loop(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if p.dead.Load() {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-p.run.finished:
			return
		case b := <-p.run.queue:
			if p.dead.Load() {
				// A sibling slot marked the peer dead while this one was
				// blocked on the queue: hand the batch straight back.
				p.run.requeue(b)
				return
			}
			p.process(ctx, b)
		}
	}
}

// process runs one batch against the peer: attempt, retry with
// exponential backoff, and on exhaustion mark the peer dead and fail
// the batch over to the survivors (or, with every peer dead, back to
// the pipeline). A peer already marked by an earlier call gets one
// attempt and no retry, from its one slot; a success clears the mark.
func (p *peerState) process(ctx context.Context, b batch) {
	r := p.run
	r.d.inflight.Add(1)
	defer r.d.inflight.Add(-1)
	backoff, retries := r.d.opt.Backoff, r.d.opt.Retries
	if p.marked.Load() {
		retries = 0
	}
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			r.d.retries.Add(1)
			if backoff > 0 {
				t := time.NewTimer(backoff)
				select {
				case <-ctx.Done():
					t.Stop()
					r.requeue(b)
					return
				case <-t.C:
				}
				backoff *= 2
			}
		}
		resp, retryable, err := r.d.postBatch(ctx, p.url, r.spec, r.indices[b.lo:b.hi])
		if err == nil {
			if err := r.apply(b, resp); err == nil {
				p.marked.Store(false)
				return
			}
			// A malformed response counts as a failed attempt.
		} else if !retryable {
			break
		}
		if ctx.Err() != nil {
			r.requeue(b)
			return
		}
	}
	p.dead.Store(true)
	if !p.marked.Swap(true) {
		r.d.failures.Add(1)
	}
	r.requeue(b)
}

// postBatch sends one shard batch to a peer. retryable is false for
// responses that can never succeed on a retry (a 4xx: version or spec
// mismatch), true for transport errors and 5xxs.
func (d *Dispatcher) postBatch(ctx context.Context, peer string, spec experiments.Spec, indices []int) (*ShardBatchResponse, bool, error) {
	body, err := json.Marshal(ShardBatchRequest{Version: sweepstore.Version, Spec: spec, Indices: indices})
	if err != nil {
		return nil, false, err
	}
	ctx, cancel := context.WithTimeout(ctx, d.opt.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, true, err
	}
	//qa:allow errcheck response body close after full read, nothing to recover
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, err
	}
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		msg := string(bytes.TrimSpace(raw))
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, resp.StatusCode/100 != 4, fmt.Errorf("worker %s: HTTP %d: %s", peer, resp.StatusCode, msg)
	}
	var out ShardBatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, true, err
	}
	return &out, false, nil
}
