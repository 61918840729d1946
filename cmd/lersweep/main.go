// Command lersweep regenerates the logical-error-rate curves of thesis
// Figs 5.11–5.16: the LER of a Surface Code 17 logical qubit versus the
// physical error rate, with and without a Pauli frame, for logical X and
// Z errors, over the full range or the pseudo-threshold zoom.
//
// Usage:
//
//	lersweep -range full -type x -mode both -samples 3 -errors 20
//	lersweep -range zoom -type z -mode pf -csv out.csv
//	lersweep -store ./sweeps -samples 3   # cache shards; reruns are free
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sweepstore"
)

func main() {
	rng := flag.String("range", "full", "PER range: full (1e-4..1e-2) or zoom (3e-4..5e-4, thesis Figs 5.12/5.14)")
	points := flag.Int("points", 9, "number of log-spaced PER points")
	etype := flag.String("type", "x", "logical error type: x or z")
	mode := flag.String("mode", "both", "configuration: nopf, pf or both")
	samples := flag.Int("samples", 3, "repetitions per PER point (thesis: 10)")
	errors := flag.Int("errors", 20, "logical errors per run before termination (thesis: 50)")
	maxWindows := flag.Int("maxwindows", 400000, "hard cap on windows per run")
	seed := flag.Int64("seed", 2017, "base RNG seed")
	workers := flag.Int("workers", 0, "Monte-Carlo worker pool size (0 = all CPUs); results are identical for any value")
	csvPath := flag.String("csv", "", "also write CSV to this file (suffix _pf/_nopf added in both mode)")
	engineName := flag.String("engine", "stack", "simulation engine: stack (QPDO oracle), framesim (bit-sliced 64-shot Pauli-frame engine) or sparse (gap-skipping frame engine, fastest at low PER)")
	lanes := flag.Int("lanes", 1, "frame-engine batch width in 64-shot words (1, 2, 4 or 8; 64*lanes shots per pass); folded results are identical at every width")
	stopRel := flag.Float64("stoprel", 0, "adaptive early stop: target relative 95% Wilson half-width on each point's LER (0 = run all samples)")
	stopMin := flag.Int("stopmin", 0, "adaptive early stop: minimum samples per point before stopping (0 = default 64)")
	stopBatch := flag.Int("stopbatch", 0, "adaptive early stop: decision granularity in samples (0 = default 256)")
	storeDir := flag.String("store", "", "content-addressed shard store directory: cache results and checkpoint for resume")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Validate every flag combination up front: a bad invocation must
	// exit with a usage error before any sweep work (or profile file)
	// is started, not fail halfway through a multi-sweep run.
	engine, err := experiments.ParseEngine(*engineName)
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "lersweep: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case flag.NArg() > 0:
		fail("unexpected argument %q", flag.Arg(0))
	case err != nil:
		fail("%v", err)
	case *rng != "full" && *rng != "zoom":
		fail("unknown range %q (want full or zoom)", *rng)
	case !strings.EqualFold(*etype, "x") && !strings.EqualFold(*etype, "z"):
		fail("unknown type %q (want x or z)", *etype)
	case *mode != "nopf" && *mode != "pf" && *mode != "both":
		fail("unknown mode %q (want nopf, pf or both)", *mode)
	case *points < 1:
		fail("-points must be >= 1, got %d", *points)
	case *samples < 0:
		fail("-samples must be >= 0, got %d", *samples)
	case *errors < 1:
		fail("-errors must be >= 1, got %d", *errors)
	case *maxWindows < 1:
		fail("-maxwindows must be >= 1, got %d", *maxWindows)
	case *workers < 0:
		fail("-workers must be >= 0, got %d", *workers)
	case *lanes != 1 && *lanes != 2 && *lanes != 4 && *lanes != 8:
		fail("-lanes must be 1, 2, 4 or 8, got %d", *lanes)
	case *lanes > 1 && engine == experiments.EngineStack:
		fail("-lanes needs a frame engine (-engine framesim or sparse)")
	case math.IsNaN(*stopRel) || math.IsInf(*stopRel, 0) || *stopRel < 0:
		fail("-stoprel must be a finite value >= 0, got %v", *stopRel)
	case *stopMin < 0:
		fail("-stopmin must be >= 0, got %d", *stopMin)
	case *stopBatch < 0:
		fail("-stopbatch must be >= 0, got %d", *stopBatch)
	case !(*stopRel > 0) && (*stopMin > 0 || *stopBatch > 0):
		fail("-stopmin/-stopbatch require -stoprel > 0")
	}

	var store *sweepstore.Store
	if *storeDir != "" {
		store, err = sweepstore.Open(*storeDir)
		if err != nil {
			fail("%v", err)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lersweep:", err)
			os.Exit(1)
		}
		//qa:allow errcheck profile file close is best-effort diagnostics
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lersweep:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lersweep:", err)
				return
			}
			//qa:allow errcheck profile file close is best-effort diagnostics
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lersweep:", err)
			}
		}()
	}

	lo, hi := 1e-4, 1e-2
	if *rng == "zoom" {
		lo, hi = 3e-4, 5e-4
	}
	et := experiments.LogicalX
	if strings.EqualFold(*etype, "z") {
		et = experiments.LogicalZ
	}

	cfg := experiments.SweepConfig{
		Engine:           engine,
		PERs:             experiments.LogSpace(lo, hi, *points),
		Samples:          *samples,
		ErrorType:        et,
		MaxLogicalErrors: *errors,
		MaxWindows:       *maxWindows,
		BaseSeed:         *seed,
		Lanes:            *lanes,
		AdaptRelWidth:    *stopRel,
		AdaptMinSamples:  *stopMin,
		AdaptBatch:       *stopBatch,
		Workers:          *workers,
		Progress: func(i int, per float64) {
			fmt.Fprintf(os.Stderr, "  point %d/%d (PER=%.3e) done\n", i+1, *points, per)
		},
	}

	// runSweep dispatches to the cached pipeline when a store is
	// configured; results are bit-identical either way.
	runSweep := func(c experiments.SweepConfig) ([]experiments.PointResult, error) {
		if store == nil {
			return experiments.RunSweep(c)
		}
		pts, err := sweepstore.RunCached(context.Background(), store, c, nil)
		if err == nil {
			st := store.Stats()
			fmt.Fprintf(os.Stderr, "  store: %d shards cached, %d computed\n", st.ShardHits, st.ShardMisses)
		}
		return pts, err
	}

	run := func(withPF bool, label string) []experiments.PointResult {
		c := cfg
		c.WithPauliFrame = withPF
		if withPF {
			c.BaseSeed += 7_777_777
		}
		fmt.Fprintf(os.Stderr, "sweep %s (%d points × %d samples, %s errors)...\n",
			label, *points, *samples, et)
		pts, err := runSweep(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lersweep:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.Table(pts, fmt.Sprintf("PER vs LER, logical %s errors, %s", et, label)))
		if th := experiments.PseudoThreshold(pts); !math.IsNaN(th) {
			fmt.Printf("pseudo-threshold (LER = PER crossing): %.3e  [thesis: ≈3.0e-4]\n\n", th)
		} else {
			fmt.Println("pseudo-threshold: no crossing in range")
		}
		if *csvPath != "" {
			path := *csvPath
			if *mode == "both" {
				suffix := "_nopf.csv"
				if withPF {
					suffix = "_pf.csv"
				}
				path = strings.TrimSuffix(path, ".csv") + suffix
			}
			if err := os.WriteFile(path, []byte(experiments.CSV(pts)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "lersweep:", err)
				os.Exit(1)
			}
		}
		return pts
	}

	switch *mode {
	case "nopf":
		run(false, "without Pauli frame (Figs 5.11/5.12)")
	case "pf":
		run(true, "with Pauli frame (Figs 5.13/5.14)")
	case "both":
		without := run(false, "without Pauli frame (Figs 5.11/5.12)")
		with := run(true, "with Pauli frame (Figs 5.13/5.14)")
		fmt.Println("# overlay (Figs 5.15/5.16): PER, LER without PF, LER with PF, delta")
		for i := range without {
			if i >= len(with) {
				break
			}
			fmt.Printf("%-12.4e %-12.4e %-12.4e %+.2e\n",
				without[i].PER, without[i].MeanLER(), with[i].MeanLER(),
				without[i].MeanLER()-with[i].MeanLER())
		}
	}
	if store != nil {
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lersweep:", err)
			os.Exit(1)
		}
	}
}
