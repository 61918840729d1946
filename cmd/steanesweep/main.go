// Command steanesweep runs the logical-error-rate study on a Steane
// [[7,1,3]] logical qubit: LER versus physical error rate, with and
// without a Pauli frame, on the QPDO oracle stack or the bit-sliced
// Steane frame engine.
//
// Usage:
//
//	steanesweep -type x -mode both -samples 3 -errors 20
//	steanesweep -engine frame -lanes 8 -samples 512 -csv out.csv
//	steanesweep -engine sparse -min 1e-4 -max 2e-3 -points 7
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	lo := flag.Float64("min", 1e-4, "lowest physical error rate of the sweep")
	hi := flag.Float64("max", 1e-2, "highest physical error rate of the sweep")
	points := flag.Int("points", 9, "number of log-spaced PER points")
	etype := flag.String("type", "x", "logical error type: x or z")
	mode := flag.String("mode", "both", "configuration: nopf, pf or both")
	samples := flag.Int("samples", 3, "repetitions per PER point")
	errors := flag.Int("errors", 20, "logical errors per run before termination")
	maxWindows := flag.Int("maxwindows", 400000, "hard cap on windows per run")
	seed := flag.Int64("seed", 2017, "base RNG seed")
	workers := flag.Int("workers", 0, "Monte-Carlo worker pool size (0 = all CPUs); results are identical for any value")
	csvPath := flag.String("csv", "", "also write CSV to this file (suffix _pf/_nopf added in both mode)")
	engineName := flag.String("engine", "stack", "simulation engine: stack (QPDO oracle), frame (bit-sliced Steane frame engine, which skips quiet windows at low PER) or sparse (the same frame engine, same results)")
	lanes := flag.Int("lanes", 1, "frame-engine batch width in 64-shot words (1, 2, 4 or 8); folded results are identical at every width")
	flag.Parse()

	engine, err := experiments.ParseEngine(*engineName)
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "steanesweep: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case flag.NArg() > 0:
		fail("unexpected argument %q", flag.Arg(0))
	case err != nil:
		fail("%v", err)
	case math.IsNaN(*lo) || math.IsInf(*lo, 0) || *lo <= 0 || *lo > 1:
		fail("-min must be in (0, 1], got %v", *lo)
	case math.IsNaN(*hi) || math.IsInf(*hi, 0) || *hi < *lo || *hi > 1:
		fail("-max must be in [min, 1], got %v", *hi)
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
		fail("-lanes needs a frame engine (-engine frame or sparse)")
	}

	et := experiments.LogicalX
	if strings.EqualFold(*etype, "z") {
		et = experiments.LogicalZ
	}
	cfg := experiments.SweepConfig{
		Code:             experiments.CodeSteane,
		Engine:           engine,
		PERs:             experiments.LogSpace(*lo, *hi, *points),
		Samples:          *samples,
		ErrorType:        et,
		MaxLogicalErrors: *errors,
		MaxWindows:       *maxWindows,
		BaseSeed:         *seed,
		Lanes:            *lanes,
		Workers:          *workers,
		Progress: func(i int, per float64) {
			fmt.Fprintf(os.Stderr, "  point %d/%d (PER=%.3e) done\n", i+1, *points, per)
		},
	}

	run := func(withPF bool, label string) []experiments.PointResult {
		c := cfg
		c.WithPauliFrame = withPF
		if withPF {
			c.BaseSeed += 7_777_777
		}
		fmt.Fprintf(os.Stderr, "steane sweep %s (%d points × %d samples, %s errors)...\n",
			label, *points, *samples, et)
		pts, err := experiments.RunSweep(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "steanesweep:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.Table(pts, fmt.Sprintf("Steane [[7,1,3]] PER vs LER, logical %s errors, %s", et, label)))
		if th := experiments.PseudoThreshold(pts); !math.IsNaN(th) {
			fmt.Printf("pseudo-threshold (LER = PER crossing): %.3e\n\n", th)
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
				fmt.Fprintln(os.Stderr, "steanesweep:", err)
				os.Exit(1)
			}
		}
		return pts
	}

	switch *mode {
	case "nopf":
		run(false, "without Pauli frame")
	case "pf":
		run(true, "with Pauli frame")
	case "both":
		without := run(false, "without Pauli frame")
		with := run(true, "with Pauli frame")
		fmt.Println("# overlay: PER, LER without PF, LER with PF, delta")
		for i := range without {
			if i >= len(with) {
				break
			}
			fmt.Printf("%-12.4e %-12.4e %-12.4e %+.2e\n",
				without[i].PER, without[i].MeanLER(), with[i].MeanLER(),
				without[i].MeanLER()-with[i].MeanLER())
		}
	}
}
