package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweepserve"
	"repro/internal/sweepstore"
)

// jobsPerGroup is how many jobs extend one seed group: 128, 256, 384 and
// then 512 samples per point. Each job reuses its group's earlier shards,
// so 12 of every 20 shard lookups hit the store.
const jobsPerGroup = 4

// minJobs is the length of the job history a run replays: jobs 0 to
// minJobs-1 on a fresh server and store, then the same jobs again on
// another fresh pair, until the deadline. Replaying gives every job
// several timed repeats with the same cache state; the first pass makes
// up the digest.
const minJobs = 200

// sweepdJob is job i of the sweepd-extend workload: the dense frame
// engine on 4 PERs, each run capped at 200 windows, extending group
// i/4's sweep to 128·(i%4+1) samples per point.
func sweepdJob(seed int64, i int) experiments.Spec {
	return experiments.Spec{
		Engine:     experiments.EngineNameFrameSim,
		PERs:       []float64{1e-3, 2e-3, 4e-3, 8e-3},
		Samples:    128 * (i%jobsPerGroup + 1),
		ErrorType:  "x",
		MaxWindows: 200,
		BaseSeed:   deriveSeed(seed, i/jobsPerGroup),
	}.Normalized()
}

func sweepdExtendSpec(seed int64) any { return sweepdJob(seed, 0) }

// sweepdSession is one sweep server over a fresh store, listening on
// loopback, and the single closed-loop client that drives it.
type sweepdSession struct {
	seed   int64
	dir    string
	store  *sweepstore.Store
	srv    *sweepserve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func openSweepdExtend(seed int64) (session, error) {
	s := &sweepdSession{seed: seed}
	if err := s.start(); err != nil {
		return nil, err
	}
	// Warm-up: the jobs of one seed group outside the workload.
	for i := 0; i < jobsPerGroup; i++ {
		if _, err := s.job(sweepdJob(warmSeed, i), nil); err != nil {
			//qa:allow errcheck the warm-up error is the one reported
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// start opens a fresh store, serves it on a loopback port and checks
// the server is up.
func (s *sweepdSession) start() error {
	dir, err := os.MkdirTemp(mkdirBuild("stores"), "sweepd-")
	if err != nil {
		return err
	}
	s.dir = dir
	if s.store, err = sweepstore.Open(filepath.Join(dir, "server")); err != nil {
		//qa:allow errcheck the open error is the one reported
		os.RemoveAll(dir)
		return err
	}
	if s.srv, err = sweepserve.New(sweepserve.Options{Store: s.store, Workers: workers}); err != nil {
		//qa:allow errcheck the set-up error is the one reported
		os.RemoveAll(dir)
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		//qa:allow errcheck the listen error is the one reported
		os.RemoveAll(dir)
		return err
	}
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Timeout: time.Minute}
	resp, err := s.client.Get(s.base + "/healthz")
	if err == nil {
		err = drain(resp, http.StatusOK, nil)
	}
	if err != nil {
		//qa:allow errcheck the health-check error is the one reported
		s.close()
		return fmt.Errorf("health check: %w", err)
	}
	return nil
}

// renew replaces the server and its store with fresh ones every minJobs
// jobs, so each pass over the job history starts from an empty store and
// a run's memory and disk footprint stay those of one pass.
func (s *sweepdSession) renew(i int) error {
	if i == 0 || i%minJobs != 0 {
		return nil
	}
	if err := s.close(); err != nil {
		return err
	}
	return s.start()
}

func mkdirBuild(sub string) string {
	dir := filepath.Join(buildDir, sub)
	//qa:allow errcheck MkdirTemp below reports a missing directory
	os.MkdirAll(dir, 0o755)
	return dir
}

func (s *sweepdSession) canonical() int { return minJobs }

func (s *sweepdSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// phases are the client-side times of one job.
type phases struct{ submit, wait, result time.Duration }

func (s *sweepdSession) op(i int) (opOut, error) {
	j := i % minJobs
	spec := sweepdJob(s.seed, j)
	t0 := time.Now()
	body, err := s.job(spec, nil)
	latency := time.Since(t0)
	if err != nil {
		return opOut{}, err
	}
	var pts []struct{ TotalWindows int64 }
	if err := json.Unmarshal(body, &pts); err != nil {
		return opOut{}, fmt.Errorf("decode result: %w", err)
	}
	var wins int64
	for _, p := range pts {
		wins += p.TotalWindows
	}
	return opOut{key: strconv.Itoa(j), sum: sha256.Sum256(body), windows: wins, latency: latency}, nil
}

// job submits spec, follows its SSE stream to the terminal event and
// fetches the folded result, whose bytes it returns without the
// encoder's trailing newline.
func (s *sweepdSession) job(spec experiments.Spec, ph *phases) ([]byte, error) {
	t0 := time.Now()
	req, err := json.Marshal(sweepserve.SubmitRequest{Version: sweepstore.Version, Spec: spec})
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Post(s.base+"/v1/sweeps", "application/json", bytes.NewReader(req))
	if err != nil {
		return nil, err
	}
	var st sweepserve.StatusResponse
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, drain(resp, http.StatusAccepted, nil)
	}
	if err := drain(resp, resp.StatusCode, &st); err != nil {
		return nil, err
	}
	t1 := time.Now()

	resp, err = s.client.Get(s.base + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		return nil, err
	}
	final, err := readEvents(resp)
	if err != nil {
		return nil, err
	}
	if final != "done" {
		return nil, fmt.Errorf("job %s ended with event %q", st.ID, final)
	}
	t2 := time.Now()

	resp, err = s.client.Get(s.base + "/v1/sweeps/" + st.ID + "/result")
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	if err := drain(resp, http.StatusOK, &body); err != nil {
		return nil, err
	}
	if ph != nil {
		ph.submit, ph.wait, ph.result = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	}
	return bytes.TrimSuffix(body.Bytes(), []byte("\n")), nil
}

// drain reads and closes resp, checking its status; into, when non-nil,
// receives the body (a *bytes.Buffer verbatim, anything else decoded).
func drain(resp *http.Response, want int, into any) error {
	//qa:allow errcheck response body only read
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: status %d: %s", resp.Request.URL.Path, resp.StatusCode, strings.TrimSpace(string(blob)))
	}
	switch v := into.(type) {
	case nil:
	case *bytes.Buffer:
		v.Write(blob)
	default:
		return json.Unmarshal(blob, v)
	}
	return nil
}

// readEvents consumes an SSE stream and returns its terminal event name.
func readEvents(resp *http.Response) (string, error) {
	//qa:allow errcheck response body only read
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", drain(resp, http.StatusOK, nil)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok && (name == "done" || name == "failed") {
			return name, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("event stream ended without a terminal event")
}

// memCache is an in-process shard cache for RunSpec, keyed like the store.
type memCache struct {
	mu   sync.Mutex
	runs map[string][]experiments.LERResult
}

// runSpec runs spec in process through RunSpec with c as its cache.
func (c *memCache) runSpec(spec experiments.Spec) ([]experiments.PointResult, error) {
	keys, err := shardKeys(spec)
	if err != nil {
		return nil, err
	}
	return experiments.RunSpec(context.Background(), spec, experiments.RunOptions{
		Workers: workers,
		Lookup: func(sh experiments.Shard) ([]experiments.LERResult, bool) {
			c.mu.Lock()
			defer c.mu.Unlock()
			rs, ok := c.runs[keys[sh.Index]]
			return rs, ok
		},
		Persist: func(sh experiments.Shard, rs []experiments.LERResult) error {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.runs[keys[sh.Index]] = rs
			return nil
		},
	})
}

func shardKeys(spec experiments.Spec) ([]string, error) {
	keys := make([]string, spec.NumShards())
	for i := range keys {
		k, err := sweepstore.ShardKey(spec.ShardConfig(spec.Shard(i)))
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// verify recomputes the jobs of the first pass in process with RunSpec —
// one shard cache per seed group, so each group computes its shards
// once — and returns the jobs whose HTTP result bytes differ. Later
// passes are checked against the first by the caller.
func (s *sweepdSession) verify(outs []opOut) ([]int, error) {
	var bad []int
	var cache *memCache
	for i, o := range outs {
		if i%jobsPerGroup == 0 {
			cache = &memCache{runs: map[string][]experiments.LERResult{}}
		}
		if o.key == "" {
			continue // the job failed and was counted already
		}
		pts, err := cache.runSpec(sweepdJob(s.seed, i))
		if err != nil {
			return nil, err
		}
		if _, sum, err := sumJSON(pts); err != nil || sum != o.sum {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

// sweepdTotals accumulates a traced sweepd-extend run over its passes.
type sweepdTotals struct {
	pt                          passTotals
	submit, wait, res, overhead []float64 // per job, ms
	plainTime, repTime          time.Duration
	jobWins                     int64
	hits, misses, writes, bytes int64 // replica store counters
}

// traced submits the first minJobs jobs per pass, passes repeating until
// the deadline, each on a fresh server and fresh stores so every pass
// sees the same history. Each job is followed by the same sweep in
// process twice: through sweepstore.RunCached on a store with the
// server's history (the untraced in-process time), and through the
// traced replica of RunCached on a third store with that history, whose
// key, get and put calls run under spans. The replica's fold must match
// the HTTP result byte for byte.
func (s *sweepdSession) traced(t *tracer, deadline time.Time) (map[string]float64, error) {
	var tot sweepdTotals
	for tot.pt.passes == 0 || time.Now().Before(deadline) {
		if tot.pt.passes > 0 {
			if err := s.close(); err != nil {
				return nil, err
			}
			if err := s.start(); err != nil {
				return nil, err
			}
		}
		if err := s.tracedPass(t, &tot); err != nil {
			return nil, err
		}
		tot.pt.passes++
	}
	m := map[string]float64{}
	n := float64(tot.pt.passes)
	tot.pt.refWins = tot.jobWins
	tot.pt.experimentsMetrics(m)
	m["trace.overhead_frac"] = tot.repTime.Seconds()/tot.plainTime.Seconds() - 1
	key, _ := t.total("sweepstore.key")
	get, _ := t.total("sweepstore.get")
	put, _ := t.total("sweepstore.put")
	m["sweepstore.key_s"] = key / n
	m["sweepstore.get_s"] = get / n
	m["sweepstore.put_s"] = put / n
	m["sweepstore.hits"] = float64(tot.hits) / n
	m["sweepstore.misses"] = float64(tot.misses) / n
	m["sweepstore.writes"] = float64(tot.writes) / n
	if look := tot.hits + tot.misses; look > 0 {
		m["sweepstore.hit_ratio"] = float64(tot.hits) / float64(look)
	}
	if tot.writes > 0 {
		m["sweepstore.bytes_per_shard"] = float64(tot.bytes) / float64(tot.writes)
	}
	m["sweepserve.submit_ms"] = median(tot.submit)
	m["sweepserve.wait_ms"] = median(tot.wait)
	m["sweepserve.result_ms"] = median(tot.res)
	m["sweepserve.overhead_ms"] = median(tot.overhead)
	return m, nil
}

// tracedPass is one pass of traced over the session's current server.
func (s *sweepdSession) tracedPass(t *tracer, tot *sweepdTotals) error {
	plain, err := sweepstore.Open(filepath.Join(s.dir, "inproc"))
	if err != nil {
		return err
	}
	rep, err := sweepstore.Open(filepath.Join(s.dir, "replica"))
	if err != nil {
		return err
	}
	for i := 0; i < minJobs; i++ {
		spec := sweepdJob(s.seed, i)
		var ph phases
		var body []byte
		t0 := time.Now()
		err := tot.pt.mem.around(func() error {
			var err error
			body, err = s.job(spec, &ph)
			return err
		})
		latency := time.Since(t0)
		if err != nil {
			return err
		}
		root := t.add("sweepserve.job", 0, t0, t0.Add(latency))
		t.add("sweepserve.submit", root, t0, t0.Add(ph.submit))
		t.add("sweepserve.wait", root, t0.Add(ph.submit), t0.Add(ph.submit+ph.wait))
		t.add("sweepserve.result", root, t0.Add(ph.submit+ph.wait), t0.Add(latency))
		tot.submit = append(tot.submit, ph.submit.Seconds()*1e3)
		tot.wait = append(tot.wait, ph.wait.Seconds()*1e3)
		tot.res = append(tot.res, ph.result.Seconds()*1e3)

		cfg, err := spec.SweepConfig()
		if err != nil {
			return err
		}
		cfg.Workers = workers
		p0 := time.Now()
		pts, err := sweepstore.RunCached(context.Background(), plain, cfg, nil)
		inproc := time.Since(p0)
		if err != nil {
			return err
		}
		tot.plainTime += inproc
		tot.overhead = append(tot.overhead, (latency-inproc).Seconds()*1e3)
		tot.jobWins += totalWindows(pts)

		r0 := time.Now()
		got, err := tracedRunCached(t, rep, spec, &tot.pt)
		tot.repTime += time.Since(r0)
		if err != nil {
			return err
		}
		_, sum, err := sumJSON(got)
		if err != nil {
			return err
		}
		if sum != sha256.Sum256(body) {
			return fmt.Errorf("job %d: traced replica fold differs from the HTTP result", i)
		}
	}
	st := rep.Stats()
	tot.hits += st.ShardHits
	tot.misses += st.ShardMisses
	tot.writes += st.ShardWrites
	tot.bytes += st.ShardBytes
	return nil
}

// tracedRunCached is sweepstore.RunCached with spans around the store's
// public calls: ShardKey per shard, GetShard in Lookup, PutShard in
// Persist. A computed shard is busy from its missed lookup to its
// persist. The shards' runs are folded again with FoldShards under the
// fold timer, and that fold is returned.
func tracedRunCached(t *tracer, st *sweepstore.Store, spec experiments.Spec, pt *passTotals) ([]experiments.PointResult, error) {
	l := t.lane(0)
	keys := make([]string, spec.NumShards())
	for i := range keys {
		l.begin("sweepstore.key")
		k, err := sweepstore.ShardKey(spec.ShardConfig(spec.Shard(i)))
		l.end()
		if err != nil {
			l.merge()
			return nil, err
		}
		keys[i] = k
	}
	l.merge()
	n := spec.NumShards()
	missed := make([]time.Time, n)
	persisted := make([]time.Time, n)
	shardRuns := make([][]experiments.LERResult, n)
	t0 := time.Now()
	_, err := experiments.RunSpec(context.Background(), spec, experiments.RunOptions{
		Workers: workers,
		Lookup: func(sh experiments.Shard) ([]experiments.LERResult, bool) {
			g0 := time.Now()
			runs, ok := st.GetShard(keys[sh.Index], sh.Count, sh.Seed)
			g1 := time.Now()
			t.add("sweepstore.get", 0, g0, g1)
			if ok {
				shardRuns[sh.Index] = runs
			} else {
				missed[sh.Index] = g1
			}
			return runs, ok
		},
		Persist: func(sh experiments.Shard, runs []experiments.LERResult) error {
			p0 := time.Now()
			persisted[sh.Index] = p0
			shardRuns[sh.Index] = runs
			err := st.PutShard(keys[sh.Index], sh.Seed, runs)
			t.add("sweepstore.put", 0, p0, time.Now())
			return err
		},
	})
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	sweep := t.add("experiments.sweep", 0, t0, t1)
	for i := range missed {
		if missed[i].IsZero() {
			continue
		}
		t.add("experiments.shard", sweep, missed[i], persisted[i])
		d := persisted[i].Sub(missed[i])
		pt.shards.busyMS = append(pt.shards.busyMS, d.Seconds()*1e3)
		pt.shards.busyS += d.Seconds()
		pt.shards.count++
	}
	pt.shards.capS += float64(workers) * t1.Sub(t0).Seconds()
	f0 := time.Now()
	pts := experiments.FoldShards(spec, shardRuns)
	pt.foldS += time.Since(f0).Seconds()
	return pts, nil
}
