// Command sweepd is the sweep service daemon and its client.
//
// The serve subcommand runs the internal/sweepserve HTTP/JSON server
// over a content-addressed internal/sweepstore result store: identical
// sub-sweeps are served from cache, every finished shard is
// checkpointed, and a server restarted over the same store resumes
// interrupted sweeps to bit-identical results. The remaining
// subcommands are a small client for scripting against that server.
//
// The worker subcommand runs the other half of the distributed
// fan-out: a shard-compute service that serve (with -peers) delegates
// shard batches to. Workers are stateless by contract — every shard is
// a pure function of its content-addressed config — so a worker set can
// be grown, shrunk, or killed mid-sweep without changing a single
// result bit.
//
// Usage:
//
//	sweepd serve  -store DIR [-addr HOST:PORT] [-workers N] [-store-max-bytes N]
//	              [-peers URL,URL,...] [-dispatch-batch N] [-dispatch-inflight N]
//	              [-dispatch-retries N] [-dispatch-timeout DUR] [-dispatch-backoff DUR]
//	sweepd worker [-addr HOST:PORT] [-workers N] [-store DIR] [-store-max-bytes N]
//	sweepd submit -spec FILE [-addr URL] [-wait] [-poll DUR]
//	sweepd status -id ID [-addr URL]
//	sweepd result -id ID [-addr URL] [-o FILE]
//	sweepd resume -id ID [-addr URL] [-wait] [-poll DUR]
//	sweepd fsck   -store DIR [-repair]
//
// fsck verifies every record of a stopped server's store and prints
// counts of records, shards, pins, bad records and torn bytes; it exits
// 1 on damage unless -repair compacts the bad records away.
//
// submit reads a bare experiments.Spec JSON object from FILE, wraps it
// with the binary's config-hash version, and posts it; the server
// rejects version mismatches rather than serving stale cache. All
// client subcommands print the server's JSON response to stdout.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweepserve"
	"repro/internal/sweepstore"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot pin connections.
const readHeaderTimeout = 10 * time.Second

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "submit", "status", "result", "resume":
		err = cmdClient(cmd, os.Args[2:])
	case "fsck":
		err = cmdFsck(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sweepd: unknown subcommand %q\n\n", cmd)
		usage()
	}
	if err != nil {
		var ue usageError
		if errors.As(err, &ue) {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sweepd serve  -store DIR [-addr HOST:PORT] [-workers N] [-store-max-bytes N]
                [-peers URL,URL,...] [-dispatch-batch N] [-dispatch-inflight N]
                [-dispatch-retries N] [-dispatch-timeout DUR] [-dispatch-backoff DUR]
  sweepd worker [-addr HOST:PORT] [-workers N] [-store DIR] [-store-max-bytes N]
  sweepd submit -spec FILE [-addr URL] [-wait] [-poll DUR]
  sweepd status -id ID [-addr URL]
  sweepd result -id ID [-addr URL] [-o FILE]
  sweepd resume -id ID [-addr URL] [-wait] [-poll DUR]
  sweepd fsck   -store DIR [-repair]`)
	os.Exit(2)
}

// usageError marks bad flag combinations: exit 2, before any work runs.
type usageError string

func (e usageError) Error() string { return string(e) }

func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8070", "listen address")
	storeDir := fs.String("store", "", "result store directory (required)")
	workers := fs.Int("workers", 0, "worker pool size per sweep (0 = all CPUs); results are identical for any value")
	maxBytes := fs.Int64("store-max-bytes", 0, "shard-cache size bound; LRU GC evicts over it (0 = unlimited)")
	peers := fs.String("peers", "", "comma-separated worker URLs to fan shard compute out to")
	batch := fs.Int("dispatch-batch", sweepserve.DefaultBatchSize, "shards per dispatched batch")
	inflight := fs.Int("dispatch-inflight", sweepserve.DefaultInFlight, "batches in flight per worker")
	retries := fs.Int("dispatch-retries", sweepserve.DefaultRetries, "retries per batch before a worker is marked dead")
	timeout := fs.Duration("dispatch-timeout", sweepserve.DefaultTimeout, "per-batch request timeout")
	backoff := fs.Duration("dispatch-backoff", sweepserve.DefaultBackoff, "first retry delay (doubled per retry)")
	//qa:allow errcheck ExitOnError flag sets never return an error
	fs.Parse(args)
	switch {
	case fs.NArg() > 0:
		return usageError(fmt.Sprintf("serve: unexpected argument %q", fs.Arg(0)))
	case *storeDir == "":
		return usageError("serve: -store is required")
	case *addr == "":
		return usageError("serve: -addr must not be empty")
	case *workers < 0:
		return usageError(fmt.Sprintf("serve: -workers must be >= 0, got %d", *workers))
	case *maxBytes < 0:
		return usageError(fmt.Sprintf("serve: -store-max-bytes must be >= 0, got %d", *maxBytes))
	}
	dispatch, err := dispatchOptions(fs, *peers, *batch, *inflight, *retries, *timeout, *backoff, *workers)
	if err != nil {
		return err
	}

	st, err := sweepstore.Open(*storeDir)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	st.SetMaxBytes(*maxBytes)
	opt := sweepserve.Options{Store: st, Workers: *workers}
	if dispatch != nil {
		if opt.Dispatch, err = sweepserve.NewDispatcher(*dispatch); err != nil {
			return usageError(fmt.Sprintf("serve: %v", err))
		}
	}
	srv, err := sweepserve.New(opt)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: readHeaderTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	role := "serving"
	if dispatch != nil {
		role = fmt.Sprintf("serving (dispatching to %d workers)", len(dispatch.Peers))
	}
	fmt.Fprintf(os.Stderr, "sweepd: %s on %s (store %s, version %s)\n",
		role, *addr, *storeDir, sweepstore.Version)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, cancel running jobs (their shards
	// are already checkpointed — resume picks them up), then shut down.
	fmt.Fprintln(os.Stderr, "sweepd: shutting down")
	srv.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	return nil
}

// dispatchOptions validates the serve fan-out flags upfront (exit 2,
// before the store is opened or the listener bound). With no -peers, a
// dispatch tuning flag set on the command line is a contradiction worth
// rejecting rather than ignoring.
func dispatchOptions(fs *flag.FlagSet, peers string, batch, inflight, retries int,
	timeout, backoff time.Duration, workers int) (*sweepserve.DispatchOptions, error) {
	if peers == "" {
		var stray string
		fs.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "dispatch-") && stray == "" {
				stray = f.Name
			}
		})
		if stray != "" {
			return nil, usageError(fmt.Sprintf("serve: -%s requires -peers", stray))
		}
		return nil, nil
	}
	list, err := sweepserve.ParsePeers(peers)
	if err != nil {
		return nil, usageError(fmt.Sprintf("serve: -peers: %v", err))
	}
	opt := sweepserve.DispatchOptions{
		Peers:        list,
		BatchSize:    batch,
		InFlight:     inflight,
		Retries:      retries,
		Timeout:      timeout,
		Backoff:      backoff,
		LocalWorkers: workers,
	}
	if err := opt.Validate(); err != nil {
		return nil, usageError(fmt.Sprintf("serve: %v", err))
	}
	return &opt, nil
}

// cmdWorker runs the shard-compute worker service. -store is optional:
// with one, the worker keeps a local shard cache (shard keys are
// network-portable content addresses, so its hits are valid for any
// coordinator); without one it recomputes every batch.
func cmdWorker(args []string) (err error) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8071", "listen address")
	storeDir := fs.String("store", "", "optional local shard-cache directory")
	workers := fs.Int("workers", 0, "compute pool size per batch (0 = all CPUs); results are identical for any value")
	maxBytes := fs.Int64("store-max-bytes", 0, "shard-cache size bound; LRU GC evicts over it (0 = unlimited)")
	//qa:allow errcheck ExitOnError flag sets never return an error
	fs.Parse(args)
	switch {
	case fs.NArg() > 0:
		return usageError(fmt.Sprintf("worker: unexpected argument %q", fs.Arg(0)))
	case *addr == "":
		return usageError("worker: -addr must not be empty")
	case *workers < 0:
		return usageError(fmt.Sprintf("worker: -workers must be >= 0, got %d", *workers))
	case *maxBytes < 0:
		return usageError(fmt.Sprintf("worker: -store-max-bytes must be >= 0, got %d", *maxBytes))
	case *storeDir == "" && *maxBytes > 0:
		return usageError("worker: -store-max-bytes requires -store")
	}

	wopt := sweepserve.WorkerOptions{Workers: *workers}
	if *storeDir != "" {
		st, err := sweepstore.Open(*storeDir)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, st.Close()) }()
		st.SetMaxBytes(*maxBytes)
		wopt.Store = st
	}
	hs := &http.Server{Addr: *addr, Handler: sweepserve.NewWorker(wopt), ReadHeaderTimeout: readHeaderTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sweepd: worker on %s (version %s)\n", *addr, sweepstore.Version)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// In-flight batches finish within the drain window; the coordinator
	// retries or fails over anything that does not.
	fmt.Fprintln(os.Stderr, "sweepd: worker shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(shutCtx)
}

// cmdFsck verifies a store offline. It takes the store's lock, so it
// fails with a clear error while a server still has the store open.
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	storeDir := fs.String("store", "", "store directory to verify (required)")
	repair := fs.Bool("repair", false, "compact bad records and torn tails away")
	if err := fs.Parse(args); err != nil {
		return usageError(fmt.Sprintf("fsck: %v", err))
	}
	switch {
	case fs.NArg() > 0:
		return usageError(fmt.Sprintf("fsck: unexpected argument %q", fs.Arg(0)))
	case *storeDir == "":
		return usageError("fsck: -store is required")
	}
	rep, err := sweepstore.Fsck(*storeDir, *repair)
	if err != nil {
		return err
	}
	fmt.Printf("store %s: %d records, %d shards, %d pins, %d bad records, %d torn bytes\n",
		*storeDir, rep.Records, rep.Shards, rep.Pins, rep.Bad, rep.TornBytes)
	switch {
	case rep.Repaired:
		fmt.Println("repaired: bad records and torn bytes compacted away")
	case rep.Damaged():
		return errors.New("fsck: store is damaged (rerun with -repair to compact the damage away)")
	}
	return nil
}

func cmdClient(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8070", "server base URL")
	var specPath, id, out *string
	var wait *bool
	var poll *time.Duration
	if cmd == "submit" {
		specPath = fs.String("spec", "", "sweep spec JSON file (required)")
	} else {
		id = fs.String("id", "", "sweep job ID (required)")
	}
	if cmd == "result" {
		out = fs.String("o", "", "write the result JSON to this file instead of stdout")
	}
	if cmd == "submit" || cmd == "resume" {
		wait = fs.Bool("wait", false, "poll until the sweep finishes")
		poll = fs.Duration("poll", 250*time.Millisecond, "status poll interval with -wait")
	}
	//qa:allow errcheck ExitOnError flag sets never return an error
	fs.Parse(args)
	switch {
	case fs.NArg() > 0:
		return usageError(fmt.Sprintf("%s: unexpected argument %q", cmd, fs.Arg(0)))
	case !strings.HasPrefix(*addr, "http://") && !strings.HasPrefix(*addr, "https://"):
		return usageError(fmt.Sprintf("%s: -addr must be an http(s) URL, got %q", cmd, *addr))
	case specPath != nil && *specPath == "":
		return usageError("submit: -spec is required")
	case id != nil && *id == "":
		return usageError(fmt.Sprintf("%s: -id is required", cmd))
	case poll != nil && *poll <= 0:
		return usageError(fmt.Sprintf("%s: -poll must be positive, got %v", cmd, *poll))
	}
	base := strings.TrimRight(*addr, "/")

	switch cmd {
	case "submit":
		st, err := submit(base, *specPath)
		if err != nil {
			return err
		}
		if *wait {
			if st, err = waitDone(base, st.ID, *poll); err != nil {
				return err
			}
		}
		return printJSON(st)
	case "status":
		st, err := getStatus(base, *id)
		if err != nil {
			return err
		}
		return printJSON(st)
	case "result":
		return fetchResult(base, *id, *out)
	case "resume":
		st, err := postStatus(base+"/v1/sweeps/"+*id+"/resume", nil)
		if err != nil {
			return err
		}
		if *wait {
			if st, err = waitDone(base, st.ID, *poll); err != nil {
				return err
			}
		}
		return printJSON(st)
	}
	return usageError("unknown subcommand " + cmd)
}

// submit reads a bare spec file, validates it client-side, and posts it
// wrapped with this binary's config-hash version.
func submit(base, specPath string) (sweepserve.StatusResponse, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return sweepserve.StatusResponse{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var spec experiments.Spec
	if err := dec.Decode(&spec); err != nil {
		return sweepserve.StatusResponse{}, fmt.Errorf("parse %s: %w", specPath, err)
	}
	if err := spec.Normalized().Validate(); err != nil {
		return sweepserve.StatusResponse{}, fmt.Errorf("%s: %w", specPath, err)
	}
	body, err := json.Marshal(sweepserve.SubmitRequest{Version: sweepstore.Version, Spec: spec})
	if err != nil {
		return sweepserve.StatusResponse{}, err
	}
	return postStatus(base+"/v1/sweeps", body)
}

func getStatus(base, id string) (sweepserve.StatusResponse, error) {
	var st sweepserve.StatusResponse
	err := doJSON(http.MethodGet, base+"/v1/sweeps/"+id, nil, &st)
	return st, err
}

func postStatus(url string, body []byte) (sweepserve.StatusResponse, error) {
	var st sweepserve.StatusResponse
	err := doJSON(http.MethodPost, url, body, &st)
	return st, err
}

func waitDone(base, id string, poll time.Duration) (sweepserve.StatusResponse, error) {
	for {
		st, err := getStatus(base, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case "done":
			return st, nil
		case "failed":
			return st, fmt.Errorf("sweep %s failed: %s", id, st.Error)
		case "stored":
			return st, fmt.Errorf("sweep %s is checkpointed but not running; resume it", id)
		}
		time.Sleep(poll)
	}
}

// fetchResult streams the result bytes verbatim to out (or stdout), so
// byte-level comparisons between runs see exactly what the server sent.
func fetchResult(base, id, out string) error {
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/result")
	if err != nil {
		return err
	}
	//qa:allow errcheck response body close after full read, nothing to recover
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return serverError(resp.StatusCode, raw)
	}
	if out == "" {
		_, err := os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(out, raw, 0o644)
}

func doJSON(method, url string, body []byte, into any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	//qa:allow errcheck response body close after full read, nothing to recover
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return serverError(resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, into)
}

func serverError(code int, raw []byte) error {
	var er sweepserve.ErrorResponse
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", er.Error, code)
	}
	return fmt.Errorf("server: HTTP %d: %s", code, bytes.TrimSpace(raw))
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
