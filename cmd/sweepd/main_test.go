package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweepserve"
	"repro/internal/sweepstore"
)

// serve runs h behind newHTTPServer on a loopback port and returns the
// port's address.
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(ln.Addr().String(), h)
	go func() {
		if err := hs.Serve(ln); err != http.ErrServerClosed {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := hs.Close(); err != nil {
			t.Error(err)
		}
	})
	return ln.Addr().String()
}

// coordinator is the serve role's handler over a fresh store.
func coordinator(t *testing.T, dispatch *sweepserve.Dispatcher) http.Handler {
	t.Helper()
	st, err := sweepstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sweepserve.New(sweepserve.Options{Store: st, Workers: 1, Dispatch: dispatch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	return srv
}

// TestTrickledBodyIsCutOff: a client that announces a body and then
// sends one byte per half second holds a connection, and a handler, for
// at most readTimeout, on both roles.
func TestTrickledBodyIsCutOff(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the read timeout")
	}
	t.Parallel()
	type cutoff struct {
		path    string
		elapsed time.Duration
		reply   string
		err     error
	}
	done := make(chan cutoff, 2)
	for path, h := range map[string]http.Handler{
		"/v1/sweeps": coordinator(t, nil),
		"/v1/shards": sweepserve.NewWorker(sweepserve.WorkerOptions{Workers: 1}),
	} {
		addr := serve(t, h)
		go func() {
			elapsed, reply, err := trickle(addr, path)
			done <- cutoff{path, elapsed, reply, err}
		}()
	}
	for i := 0; i < 2; i++ {
		c := <-done
		if ne, ok := c.err.(net.Error); ok && ne.Timeout() {
			t.Errorf("POST %s: connection still open after %v (read timeout %v)", c.path, c.elapsed.Round(time.Millisecond), readTimeout)
			continue
		}
		if c.elapsed < readTimeout-time.Second {
			t.Errorf("POST %s: connection closed after %v, before the read timeout %v: %q, %v", c.path, c.elapsed, readTimeout, c.reply, c.err)
			continue
		}
		t.Logf("POST %s: cut off after %v: reply %q, read error %v", c.path, c.elapsed.Round(time.Millisecond), c.reply, c.err)
	}
}

// trickle posts a 200-byte body to path one byte per half second and
// waits, at most 5 s past readTimeout, for the server to close the
// connection: an EOF, or a reset when it closes with bytes unread. It
// returns the time that took, the reply's status line and the error
// that ended the read.
func trickle(addr, path string) (time.Duration, string, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, "", err
	}
	defer conn.Close()
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readTimeout + 5*time.Second)); err != nil {
		return 0, "", err
	}
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: sweepd\r\nContent-Type: application/json\r\nContent-Length: 200\r\n\r\n{", path)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte(" ")); err != nil {
					return
				}
			}
		}
	}()
	reply, err := io.ReadAll(conn)
	status, _, _ := strings.Cut(string(reply), "\r\n")
	return time.Since(start), status, err
}

// TestLongResponsesOutliveReadTimeout: the read timeout ends with the
// request, not with the response. A worker whose shard batch takes
// longer than readTimeout still answers, and the coordinator's SSE
// progress stream keeps delivering events past it: the sweep's only
// worker reads its batch, then holds it until the stream has been open
// longer than readTimeout.
func TestLongResponsesOutliveReadTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the read timeout")
	}
	t.Parallel()
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	t.Cleanup(releaseAll)
	worker := sweepserve.NewWorker(sweepserve.WorkerOptions{Workers: 1})
	peer := "http://" + serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			batch, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("read shard batch: %v", err)
				return
			}
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(batch))
		}
		worker.ServeHTTP(w, r)
	}))
	d, err := sweepserve.NewDispatcher(sweepserve.DispatchOptions{Peers: []string{peer}})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + serve(t, coordinator(t, d))

	spec := experiments.Spec{
		Engine:           "framesim",
		PERs:             []float64{2e-3, 4e-3},
		Samples:          64,
		ErrorType:        "x",
		WithPauliFrame:   true,
		MaxLogicalErrors: 2,
		MaxWindows:       500,
		BaseSeed:         7,
	}
	body, err := json.Marshal(sweepserve.SubmitRequest{Version: sweepstore.Version, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st sweepserve.StatusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	resp, err = http.Get(base + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	time.AfterFunc(readTimeout+2*time.Second, releaseAll)

	var names []string
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		if name, ok := strings.CutPrefix(scanner.Text(), "event: "); ok {
			if len(names) == 0 && time.Since(start) < readTimeout {
				t.Fatalf("event %q after %v, before the worker was released", name, time.Since(start))
			}
			names = append(names, name)
		}
	}
	elapsed := time.Since(start)
	if want := []string{"point", "point", "done"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("stream ended after %v with events %v, want %v (err %v)", elapsed.Round(time.Millisecond), names, want, scanner.Err())
	}
	// Every shard came back from the worker on the first try.
	if ds := d.Stats(); ds.Retries != 0 || ds.PeerFailures != 0 || ds.LocalShards != 0 || ds.RemoteShards != int64(spec.NumShards()) {
		t.Fatalf("dispatch stats %+v, want all %d shards remote with no retry", ds, spec.NumShards())
	}
	t.Logf("stream delivered %v and ended after %v", names, elapsed.Round(time.Millisecond))
}
