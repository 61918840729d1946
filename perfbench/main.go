// Command perfbench is the repository's benchmark: four workloads that
// each load one layer of the sweep stack — the dense frame kernels, the
// sparse frame walker, the QPDO oracle stack, and the sweep service over
// loopback HTTP — measured end to end, checked for correct output, and,
// in a separate traced run, split layer by layer.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload frame-threshold --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh -steady 10 -out runs.jsonl        # run-to-run spread per metric
//	bash perfbench/run.sh -compare parent.jsonl change.jsonl
//
// The last line of a measuring run is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workers is the worker pool of every sweep: the benchmark host has two
// CPUs and the benchmark is one process.
const workers = 2

// setupReps is how many times a run sets its workload up: once before the
// timed operations and the rest spread evenly through them, so the
// samples see the machine at different moments. setup_s is the median.
const setupReps = 7

// buildDir holds everything a run leaves behind, relative to the
// checkout root the benchmark runs from.
const buildDir = ".bench_build"

// opOut is what one timed operation produced: the identity of its input
// (ops with equal keys must produce equal bytes), the SHA-256 of its
// canonical folded PointResult JSON, the windows it simulated, and the
// latency its user saw (the sweep call, or submit to result).
type opOut struct {
	key     string
	sum     [32]byte
	windows int64
	latency time.Duration
}

// renewer is a session that renews its state before some operations,
// outside the timed interval.
type renewer interface {
	renew(i int) error
}

// session is one set-up workload instance.
type session interface {
	// op runs timed operation i.
	op(i int) (opOut, error)
	// canonical is the number of leading operations whose results make
	// up the workload digest; a run performs at least that many.
	canonical() int
	// verify re-derives the outputs of the canonical operations
	// independently after the timed phase and returns the indices that
	// disagree. Later operations repeat canonical inputs and are checked
	// against their first run.
	verify(outs []opOut) ([]int, error)
	// traced runs the workload's replica drivers under the tracer until
	// the deadline (at least one pass) and returns its layer metrics.
	traced(t *tracer, deadline time.Time) (map[string]float64, error)
	close() error
}

// workload names one benchmark workload.
type workload struct {
	name string
	why  string
	open func(seed int64) (session, error)
	// spec describes the workload's first operation for the record.
	spec func(seed int64) any
}

var workloads = []workload{
	{name: "frame-threshold", open: openFrameThreshold, spec: frameThresholdSpec,
		why: "dense framesim tape kernels at PERs straddling the pseudo-threshold; store and HTTP idle"},
	{name: "sparse-lowper", open: openSparseLowPER, spec: sparseLowPERSpec,
		why: "sparse engine below threshold: window skipping and gap sampling dominate, dense kernels rarely run"},
	{name: "stack-paired", open: openStackPaired, spec: stackPairedSpec,
		why: "PF-off/PF-on paired sweeps on the QPDO oracle stack: chp, layers and surface code do the work"},
	{name: "sweepd-extend", open: openSweepdExtend, spec: sweepdExtendSpec,
		why: "sweep service over loopback HTTP, jobs extending earlier sweeps by samples: store and server layers"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same on every
// workload. A "job" is one submitted sweep on sweepd-extend and one
// in-process sweep (paired sweep on stack-paired) elsewhere. The job and
// window figures take each distinct input once, at the median of its
// repeats in the run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"windows_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Times and counts are per
// pass over the workload's canonical operations. A layer the workload
// does not load is measured on one pass of the workload that does (see
// layerHomes).
var perLayer = []metricDef{
	{"experiments.shards", "count"},
	{"experiments.shard_busy_s", "s"},
	{"experiments.shard_p50_ms", "ms"},
	{"experiments.shard_max_ms", "ms"},
	{"experiments.worker_idle_frac", "frac"},
	{"experiments.fold_s", "s"},
	{"framesim.compile_s", "s"},
	{"framesim.batch_s", "s"},
	{"framesim.ns_per_window", "ns"},
	{"framesim.ns_per_lane_window", "ns"},
	{"framesim.lane_util", "frac"},
	{"framesim.sparse.compile_s", "s"},
	{"framesim.sparse.batch_s", "s"},
	{"framesim.sparse.ns_per_window", "ns"},
	{"framesim.sparse.ns_per_lane_window", "ns"},
	{"framesim.sparse.lane_util", "frac"},
	{"surface.window_self_s", "s"},
	{"surface.esm_round_self_s", "s"},
	{"surface.probe_s", "s"},
	{"layers.pauliframe.self_s", "s"},
	{"layers.error.self_s", "s"},
	{"layers.counter.self_s", "s"},
	{"layers.pauliframe.gates_filtered_frac", "frac"},
	{"layers.error.injected", "count"},
	{"chp.execute_s", "s"},
	{"chp.ns_per_op", "ns"},
	{"stack.pf_host_cost_ratio", "ratio"},
	{"sweepstore.key_s", "s"},
	{"sweepstore.get_s", "s"},
	{"sweepstore.put_s", "s"},
	{"sweepstore.hits", "count"},
	{"sweepstore.misses", "count"},
	{"sweepstore.writes", "count"},
	{"sweepstore.hit_ratio", "frac"},
	{"sweepstore.bytes_per_shard", "B"},
	{"sweepserve.submit_ms", "ms"},
	{"sweepserve.wait_ms", "ms"},
	{"sweepserve.result_ms", "ms"},
	{"sweepserve.overhead_ms", "ms"},
	{"runtime.allocs_per_window", "count"},
	{"runtime.alloc_bytes_per_window", "B"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a measuring run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: frame-threshold, sparse-lowper, stack-paired or sweepd-extend")
		seed    = flag.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 30, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced replica drivers and prints the per-layer metrics")
		steady  = flag.Int("steady", 0, "run every workload (or -workload) this many times, each with another seed, and print each end-to-end metric's spread next to its bound")
		out     = flag.String("out", "", "with -steady: also append each run's record to this JSON-lines file")
		compare = flag.Bool("compare", false, "compare two JSON-lines run files (parent, then change) written by -steady -out")
		pin     = flag.Bool("pin", false, "rewrite perfbench/workloads.json with the specs and digests of the default seed")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two files: parent runs, then change runs")
			break
		}
		err = runCompare(flag.Arg(0), flag.Arg(1))
	case *steady > 0:
		err = runSteady(*name, *steady, *seconds, *out)
	case *pin:
		err = runPin()
	default:
		err = runMeasure(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runMeasure performs one measuring run and prints its result line.
func runMeasure(name string, seed int64, seconds int, traced bool) error {
	wl, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d, want at least 1", seconds)
	}
	env := environment()
	blob, err := json.Marshal(map[string]any{"env": env, "workload": wl.name, "why": wl.why,
		"seed": seed, "seconds": seconds, "trace": traced, "first_op_spec": wl.spec(seed)})
	if err != nil {
		return err
	}
	fmt.Printf("run %s\n", blob)

	t0 := time.Now()
	s, err := wl.open(seed)
	if err != nil {
		return fmt.Errorf("set up %s: %w", wl.name, err)
	}
	setups := []float64{time.Since(t0).Seconds()}
	res, runErr := measure(wl, s, seed, seconds, traced, env, &setups)
	if err := s.close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("tear down %s: %w", wl.name, err)
	}
	if runErr != nil {
		return runErr
	}
	if !traced {
		res.Metrics["setup_s"] = metricValue{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := res.Metrics[m.name]; !ok || len(res.Metrics) != len(want) {
			return fmt.Errorf("run reports %d metrics, want exactly %d including %s", len(res.Metrics), len(want), m.name)
		}
	}
	res.Correct = res.Failed == 0
	noun := opNoun(wl.name)
	if traced {
		noun = "traced drivers"
	}
	fmt.Printf("failed_frac %.6g (%d failed of %d attempted %s)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, noun)
	for _, m := range sortedMetricNames(res.Metrics) {
		fmt.Printf("metric %-40s %14.6g %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func opNoun(name string) string {
	switch name {
	case "sweepd-extend":
		return "HTTP jobs"
	case "stack-paired":
		return "paired sweeps"
	}
	return "sweeps"
}

func sortedMetricNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure runs the timed operations (or, traced, the replica drivers)
// on a set-up session. Untraced, it also sets the workload up again
// between operations, outside their timing, until setups holds
// setupReps samples.
func measure(wl workload, s session, seed int64, seconds int, traced bool, env map[string]any, setups *[]float64) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	start := time.Now()
	run := time.Duration(seconds) * time.Second
	deadline := start.Add(run)
	if traced {
		t := newTracer(fmt.Sprintf("%s-seed%d", wl.name, seed))
		lm, err := s.traced(t, deadline)
		res.Attempted = 1
		if err != nil {
			// A replica whose fold differs from the untraced run measures
			// another program: the run fails.
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			res.Failed = 1
			lm = map[string]float64{}
		}
		for _, home := range workloads {
			if home.name == wl.name {
				continue
			}
			res.Attempted++
			if err := homePass(t, home, seed, lm); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: traced pass of %s: %v\n", home.name, err)
				res.Failed++
			}
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{lm[m.name], m.unit}
		}
		path := filepath.Join(buildDir, "traces", t.run+".jsonl")
		if err := t.write(path, env); err != nil {
			return res, err
		}
		fmt.Printf("trace %s (%d spans kept)\n", path, len(t.spans))
		return res, nil
	}

	var (
		outs  []opOut
		busy  time.Duration
		first = map[string]opOut{}     // the first run of each distinct input
		reps  = map[string][]float64{} // each distinct input's latencies, ms
		keys  []string                 // the distinct inputs in first-run order
	)
	for i := 0; i < s.canonical() || time.Now().Before(deadline); i++ {
		if k := len(*setups); k < setupReps && time.Since(start) >= run*time.Duration(k)/setupReps {
			if err := timeSetup(wl, seed, setups); err != nil {
				return res, err
			}
		}
		if r, ok := s.(renewer); ok {
			if err := r.renew(i); err != nil {
				return res, fmt.Errorf("renew before op %d: %w", i, err)
			}
		}
		t0 := time.Now()
		o, err := s.op(i)
		busy += time.Since(t0)
		res.Attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			res.Failed++
			outs = append(outs, opOut{})
			continue
		}
		outs = append(outs, o)
		f, seen := first[o.key]
		if !seen {
			keys = append(keys, o.key)
			first[o.key] = o
		} else if f.sum != o.sum {
			fmt.Fprintf(os.Stderr, "perfbench: op %d: output differs from an earlier op on the same input\n", i)
			res.Failed++
		}
		reps[o.key] = append(reps[o.key], o.latency.Seconds()*1e3)
	}
	for len(*setups) < setupReps {
		if err := timeSetup(wl, seed, setups); err != nil {
			return res, err
		}
	}

	bad, err := s.verify(outs[:s.canonical()])
	if err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	res.Failed += len(bad)
	for _, i := range bad {
		fmt.Fprintf(os.Stderr, "perfbench: op %d: output differs from the independent in-process computation\n", i)
	}

	digest := workloadDigest(outs[:s.canonical()])
	fmt.Printf("digest %s over the first %d ops\n", digest, s.canonical())
	if want, ok := pinnedDigest(wl.name, seed); ok && want != digest {
		fmt.Fprintf(os.Stderr, "perfbench: digest %s, pinned %s for seed %d\n", digest, want, seed)
		res.Failed++
	}

	// Each distinct input is timed by the median of its repeats. The host's
	// other tenants move its cores between a contended and a free state for
	// stretches of a second or more; the fastest repeat depends on whether
	// a run caught a free stretch, the median does not.
	var (
		lats    []float64
		wins    int64
		totalMS float64
		fewest  = -1
	)
	for _, k := range keys {
		m := median(reps[k])
		lats = append(lats, m)
		wins += first[k].windows
		totalMS += m
		if n := len(reps[k]); fewest < 0 || n < fewest {
			fewest = n
		}
	}
	total := time.Duration(totalMS * float64(time.Millisecond))
	p50, _ := percentile(lats, 0.50)
	p95, beyond := percentile(lats, 0.95)
	fmt.Printf("ops %d on %d distinct inputs over %.3fs; each input timed by the median of its %d or more repeats; job_p95_ms has %d inputs beyond it\n",
		len(outs), len(keys), busy.Seconds(), fewest, beyond)
	res.Metrics["windows_per_s"] = metricValue{float64(wins) / total.Seconds(), "1/s"}
	res.Metrics["jobs_per_s"] = metricValue{float64(len(keys)) / total.Seconds(), "1/s"}
	res.Metrics["job_p50_ms"] = metricValue{p50, "ms"}
	res.Metrics["job_p95_ms"] = metricValue{p95, "ms"}
	return res, nil
}

// layerHomes maps the prefix of each layer's per-layer metrics to the
// workload that loads the layer. The first matching prefix wins.
var layerHomes = []struct{ prefix, home string }{
	{"framesim.sparse.", "sparse-lowper"},
	{"framesim.", "frame-threshold"},
	{"surface.", "stack-paired"},
	{"layers.", "stack-paired"},
	{"chp.", "stack-paired"},
	{"stack.", "stack-paired"},
	{"sweepstore.", "sweepd-extend"},
	{"sweepserve.", "sweepd-extend"},
}

// homeOf returns the workload that loads the layer of per-layer metric
// name, or "" for the pipeline, runtime and trace metrics every workload
// reports from its own run.
func homeOf(name string) string {
	for _, h := range layerHomes {
		if strings.HasPrefix(name, h.prefix) {
			return h.home
		}
	}
	return ""
}

// homePass measures the layers a traced run's own workload does not
// reach on one traced pass of home, the workload that loads them, so
// every per-layer metric of a traced run is a measurement. It copies
// home's layer metrics into lm.
func homePass(t *tracer, home workload, seed int64, lm map[string]float64) error {
	s, err := home.open(seed)
	if err != nil {
		return err
	}
	hm, err := s.traced(t, time.Now())
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	for _, m := range perLayer {
		if homeOf(m.name) == home.name {
			lm[m.name] = hm[m.name]
		}
	}
	fmt.Printf("layers of %s measured on one traced pass of that workload\n", home.name)
	return nil
}

// timeSetup sets the workload up once more, appends the time that took
// to setups, and tears the extra session down.
func timeSetup(wl workload, seed int64, setups *[]float64) error {
	t0 := time.Now()
	s, err := wl.open(seed)
	if err != nil {
		return fmt.Errorf("set up %s: %w", wl.name, err)
	}
	*setups = append(*setups, time.Since(t0).Seconds())
	return s.close()
}

// workloadDigest hashes the per-op result digests of the canonical ops
// in op order: SHA-256 over the concatenated SHA-256s of each op's
// folded PointResult JSON.
func workloadDigest(outs []opOut) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write(o.sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sumJSON returns the canonical JSON of v and its SHA-256.
func sumJSON(v any) ([]byte, [32]byte, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return nil, [32]byte{}, err
	}
	return blob, sha256.Sum256(blob), nil
}

// pinFile records each workload's first spec and digest at the default
// seed, relative to the checkout root.
const pinFile = "perfbench/workloads.json"

// defaultSeed is the seed the digests in pinFile are pinned for.
const defaultSeed = 1

type pinned struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string]pinWorkload `json:"workloads"`
}

type pinWorkload struct {
	Why    string `json:"why"`
	Spec   any    `json:"first_op_spec"`
	Ops    int    `json:"digest_ops"`
	Digest string `json:"digest"`
}

// pinnedDigest returns the digest pinned for workload name, if seed is
// the pinned seed.
func pinnedDigest(name string, seed int64) (string, bool) {
	blob, err := os.ReadFile(pinFile)
	if err != nil {
		return "", false
	}
	var p pinned
	if err := json.Unmarshal(blob, &p); err != nil || p.Seed != seed {
		return "", false
	}
	pw, ok := p.Workloads[name]
	return pw.Digest, ok
}

// runPin computes every workload's digest at the default seed and
// rewrites pinFile.
func runPin() error {
	p := pinned{Seed: defaultSeed, Workloads: map[string]pinWorkload{}}
	for _, wl := range workloads {
		s, err := wl.open(defaultSeed)
		if err != nil {
			return err
		}
		outs := make([]opOut, s.canonical())
		for i := range outs {
			if outs[i], err = s.op(i); err != nil {
				//qa:allow errcheck the op error is the one reported
				s.close()
				return err
			}
		}
		if err := s.close(); err != nil {
			return err
		}
		p.Workloads[wl.name] = pinWorkload{Why: wl.why, Spec: wl.spec(defaultSeed), Ops: len(outs), Digest: workloadDigest(outs)}
	}
	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinFile, append(blob, '\n'), 0o644)
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	rev := "unknown (not built from a git checkout)"
	if out, err := os.ReadFile(filepath.Join(buildDir, "REVISION")); err == nil {
		if r := string(bytes.TrimSpace(out)); r != "" {
			rev = r
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_rev":    rev,
	}
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(blob, []byte("\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(blob, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			var kb float64
			if _, err := fmt.Sscanf(string(bytes.TrimSpace(v)), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
