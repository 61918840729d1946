package sweepserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweepstore"
)

func testSpec() experiments.Spec {
	return experiments.Spec{
		Engine:           "stack",
		PERs:             []float64{3e-3, 8e-3},
		Samples:          2,
		ErrorType:        "x",
		WithPauliFrame:   true,
		MaxLogicalErrors: 4,
		MaxWindows:       3000,
		BaseSeed:         424242,
	}
}

func newTestServer(t *testing.T, dir string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	st, err := sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Store: st, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	return srv, ts
}

func submit(t *testing.T, base string, spec experiments.Spec) StatusResponse {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Version: sweepstore.Version, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, base, id string) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st StatusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case stateDone:
			return st
		case stateFailed:
			t.Fatalf("sweep %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still %s after deadline", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getResult(t *testing.T, base, id string) ([]experiments.PointResult, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	var pts []experiments.PointResult
	if err := json.NewDecoder(io2(&buf, resp)).Decode(&pts); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	return pts, buf.Bytes()
}

// io2 tees the response body so tests can compare raw bytes.
func io2(buf *bytes.Buffer, resp *http.Response) *teeReader { return &teeReader{resp: resp, buf: buf} }

type teeReader struct {
	resp *http.Response
	buf  *bytes.Buffer
}

func (r *teeReader) Read(p []byte) (int, error) {
	n, err := r.resp.Body.Read(p)
	r.buf.Write(p[:n])
	return n, err
}

// TestServerEndToEnd is the service contract in one flow: submit and
// poll a sweep over HTTP; its result is bit-identical with a local
// Workers=1 run; resubmitting the identical spec is a 100% cache hit;
// and a second server over the same store ("restart") resumes the job
// to the identical result without computing anything.
func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("server e2e skipped in -short mode")
	}
	spec := testSpec()
	cfg, err := spec.SweepConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	want, err := experiments.RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	srv, ts := newTestServer(t, dir, 4)
	st := submit(t, ts.URL, spec)
	if st.ID == "" || st.Shards.Total != spec.NumShards() {
		t.Fatalf("submit status: %+v", st)
	}
	id := st.ID

	final := waitDone(t, ts.URL, id)
	if final.Shards.Computed != spec.NumShards() || final.Shards.Cached != 0 {
		t.Errorf("first run: computed=%d cached=%d, want %d/0",
			final.Shards.Computed, final.Shards.Cached, spec.NumShards())
	}
	if final.PointsDone != len(spec.PERs) {
		t.Errorf("first run: points_done=%d, want %d", final.PointsDone, len(spec.PERs))
	}
	pts, raw1 := getResult(t, ts.URL, id)
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("server result diverged from local Workers=1 run:\nserver: %+v\nlocal:  %+v", pts, want)
	}

	// Identical spec resubmission: served fully from the shard cache.
	st2 := submit(t, ts.URL, spec)
	if st2.ID != id {
		t.Fatalf("identical spec hashed to a different job: %s vs %s", st2.ID, id)
	}
	rerun := waitDone(t, ts.URL, id)
	if rerun.Shards.Cached != spec.NumShards() || rerun.Shards.Computed != 0 {
		t.Errorf("resubmission: computed=%d cached=%d, want 0/%d",
			rerun.Shards.Computed, rerun.Shards.Cached, spec.NumShards())
	}
	_, raw2 := getResult(t, ts.URL, id)
	if !bytes.Equal(raw1, raw2) {
		t.Error("cached rerun served different result bytes")
	}

	// A Steane spec rides the same service with no code of its own: a job
	// of its own, result bytes equal to an in-process RunSpec, and an
	// identical resubmission served fully from the shard cache.
	steane := testSpec()
	steane.Code = experiments.CodeNameSteane
	steanePts, err := experiments.RunSpec(context.Background(), steane, experiments.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	steaneWant, err := json.Marshal(steanePts)
	if err != nil {
		t.Fatal(err)
	}
	sid := submit(t, ts.URL, steane).ID
	if sid == id {
		t.Fatal("Steane spec hashed to the SC17 job")
	}
	if fin := waitDone(t, ts.URL, sid); fin.Shards.Computed != steane.NumShards() {
		t.Errorf("Steane run: computed=%d, want %d", fin.Shards.Computed, steane.NumShards())
	}
	_, rawS1 := getResult(t, ts.URL, sid)
	if !bytes.Equal(bytes.TrimSpace(rawS1), steaneWant) {
		t.Fatalf("Steane result bytes differ from in-process RunSpec:\nserver: %s\nlocal:  %s", rawS1, steaneWant)
	}
	if again := submit(t, ts.URL, steane); again.ID != sid {
		t.Fatalf("identical Steane spec hashed to a different job: %s vs %s", again.ID, sid)
	}
	if rerun := waitDone(t, ts.URL, sid); rerun.Shards.Cached != steane.NumShards() || rerun.Shards.Computed != 0 {
		t.Errorf("Steane resubmission: computed=%d cached=%d, want 0/%d",
			rerun.Shards.Computed, rerun.Shards.Cached, steane.NumShards())
	}
	if _, rawS2 := getResult(t, ts.URL, sid); !bytes.Equal(rawS1, rawS2) {
		t.Error("cached Steane rerun served different result bytes")
	}

	// "Restart": a fresh server over the same store. The result is
	// immediately servable, status reports the checkpointed job, and
	// resume replays it without recomputation. The first server's store
	// is closed first: one process, one Store per directory.
	ts.Close()
	srv.Close()
	if err := srv.store.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, dir, 2)
	resp, err := http.Get(ts2.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var stored StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&stored); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stored.State != stateStored || !stored.HasResult {
		t.Fatalf("restarted server status: %+v, want stored with result", stored)
	}
	// Before any resume, the result comes straight from the store, with
	// the bytes the first server served.
	if _, rawStored := getResult(t, ts2.URL, id); !bytes.Equal(raw1, rawStored) {
		t.Errorf("stored result bytes differ from the original run:\nstored:   %s\noriginal: %s", rawStored, raw1)
	}
	resp, err = http.Post(ts2.URL+"/v1/sweeps/"+id+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resumed := waitDone(t, ts2.URL, id)
	if resumed.Shards.Computed != 0 || resumed.Shards.Cached != spec.NumShards() {
		t.Errorf("resume after restart: computed=%d cached=%d, want 0/%d",
			resumed.Shards.Computed, resumed.Shards.Cached, spec.NumShards())
	}
	pts3, raw3 := getResult(t, ts2.URL, id)
	if !reflect.DeepEqual(pts3, want) || !bytes.Equal(raw1, raw3) {
		t.Error("resumed result diverged from the original run")
	}
}

// TestServerEventsStream subscribes to the SSE stream and requires the
// in-order point events plus a terminal done event.
func TestServerEventsStream(t *testing.T) {
	if testing.Short() {
		t.Skip("server e2e skipped in -short mode")
	}
	spec := testSpec()
	_, ts := newTestServer(t, t.TempDir(), 2)
	id := submit(t, ts.URL, spec).ID

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var names []string
	var points []int
	scanner := bufio.NewScanner(resp.Body)
	current := ""
	for scanner.Scan() {
		line := scanner.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			current = name
			names = append(names, name)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && current == eventPoint {
			var pe PointEvent
			if err := json.Unmarshal([]byte(data), &pe); err != nil {
				t.Fatal(err)
			}
			points = append(points, pe.Point)
		}
		if current == eventDone || current == eventFailed {
			break
		}
	}
	if len(names) == 0 || names[len(names)-1] != eventDone {
		t.Fatalf("event names %v, want trailing %q", names, eventDone)
	}
	wantPoints := make([]int, len(spec.PERs))
	for i := range wantPoints {
		wantPoints[i] = i
	}
	if !reflect.DeepEqual(points, wantPoints) {
		t.Fatalf("point events %v, want %v (strictly ascending)", points, wantPoints)
	}
}

// TestServerRejectsBadSubmissions: version mismatches and invalid specs
// are 400s, never silently served.
func TestServerRejectsBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), 1)
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, er.Error
	}

	specJSON, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	code, msg := post(fmt.Sprintf(`{"version":"pf-sweep-v0","spec":%s}`, specJSON))
	if code != http.StatusBadRequest || !strings.Contains(msg, "version mismatch") {
		t.Errorf("stale version: code %d, msg %q", code, msg)
	}
	code, msg = post(fmt.Sprintf(`{"version":%q,"spec":{"engine":"warp","pers":[0.001]}}`, sweepstore.Version))
	if code != http.StatusBadRequest || !strings.Contains(msg, "unknown engine") {
		t.Errorf("bad engine: code %d, msg %q", code, msg)
	}
	code, _ = post(fmt.Sprintf(`{"version":%q,"spec":{"pers":[]}}`, sweepstore.Version))
	if code != http.StatusBadRequest {
		t.Errorf("empty pers: code %d", code)
	}
	code, _ = post(`{"version":` + fmt.Sprintf("%q", sweepstore.Version) + `,"spec":{"pers":[0.001]},"bogus":1}`)
	if code != http.StatusBadRequest {
		t.Errorf("unknown field: code %d", code)
	}

	// Unknown job IDs are 404s on every job route.
	for _, path := range []string{"/v1/sweeps/deadbeef", "/v1/sweeps/deadbeef/result", "/v1/sweeps/deadbeef/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: code %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps/deadbeef/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("resume unknown: code %d, want 404", resp.StatusCode)
	}
}

// TestServerSurvivesHostileBodies: a submit whose samples count would
// size the job's per-shard slices at 2^44 entries answers 400 and the
// server keeps serving, and a submit or shard-batch body past
// maxRequestBytes answers 413, on both roles.
func TestServerSurvivesHostileBodies(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), 1)
	ws := httptest.NewServer(NewWorker(WorkerOptions{Workers: 1}))
	defer ws.Close()
	post := func(url string, body []byte) int {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	huge := experiments.Spec{Engine: "framesim", PERs: []float64{0.001}, Samples: 1125899906842624}
	body, err := json.Marshal(SubmitRequest{Version: sweepstore.Version, Spec: huge})
	if err != nil {
		t.Fatal(err)
	}
	if code := post(ts.URL+"/v1/sweeps", body); code != http.StatusBadRequest {
		t.Errorf("huge samples submit: status %d, want 400", code)
	}
	body, err = json.Marshal(ShardBatchRequest{Version: sweepstore.Version, Spec: huge, Indices: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if code := post(ws.URL+"/v1/shards", body); code != http.StatusBadRequest {
		t.Errorf("huge samples shard batch: status %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after huge submit: status %d", resp.StatusCode)
	}

	// A well-formed prefix that runs past the limit: the decoder must
	// hit the cap, not a syntax error.
	var big bytes.Buffer
	fmt.Fprintf(&big, `{"version":%q,"spec":{"engine":"framesim","pers":[0.001`, sweepstore.Version)
	for big.Len() <= maxRequestBytes {
		big.WriteString(",0.001")
	}
	big.WriteString(`],"samples":64},"indices":[0]}`)
	if code := post(ts.URL+"/v1/sweeps", big.Bytes()); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit: status %d, want 413", code)
	}
	if code := post(ws.URL+"/v1/shards", big.Bytes()); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized shard batch: status %d, want 413", code)
	}
}

// TestServerRejectsMalformedIDs: a job ID from the URL names store
// entries, so anything but 64 lowercase hex digits is refused on every
// job route — in particular an escaped path that would read files
// outside the store.
func TestServerRejectsMalformedIDs(t *testing.T) {
	base := t.TempDir()
	outside := filepath.Join(base, "outside")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(testSpec().Normalized())
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"spec.json": string(specJSON), "result.json": `[{"per":0.5}]`} {
		if err := os.WriteFile(filepath.Join(outside, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, filepath.Join(base, "store"), 1)
	id, err := sweepstore.SpecKey(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"..%2F..%2Foutside",
		strings.ToUpper(id),
		id[:63],
		id + "0",
	} {
		for _, rt := range []struct{ method, suffix string }{
			{http.MethodGet, ""}, {http.MethodGet, "/result"},
			{http.MethodGet, "/events"}, {http.MethodPost, "/resume"},
		} {
			req, err := http.NewRequest(rt.method, ts.URL+"/v1/sweeps/"+bad+rt.suffix, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var er ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode/100 != 4 || err != nil || !strings.Contains(er.Error, "64 lowercase hex digits") {
				t.Errorf("%s %s%s: code %d, error %q (decode: %v), want a 4xx naming the ID format",
					rt.method, bad, rt.suffix, resp.StatusCode, er.Error, err)
			}
		}
	}
}

// TestServerHealthAndMetrics sanity-checks the observability routes.
func TestServerHealthAndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("server e2e skipped in -short mode")
	}
	_, ts := newTestServer(t, t.TempDir(), 2)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["version"] != sweepstore.Version {
		t.Fatalf("healthz: %+v", health)
	}

	spec := testSpec()
	id := submit(t, ts.URL, spec).ID
	waitDone(t, ts.URL, id)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		sb.WriteString(scanner.Text())
		sb.WriteString("\n")
	}
	resp.Body.Close()
	metrics := sb.String()
	for _, want := range []string{
		"sweepd_jobs_done 1",
		fmt.Sprintf("sweepd_shards_computed %d", spec.NumShards()),
		fmt.Sprintf("sweepd_store_shard_writes %d", spec.NumShards()),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
