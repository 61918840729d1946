// Command ttest regenerates the statistical-analysis figures of thesis
// §5.3.2: the absolute LER difference between runs with and without a
// Pauli frame with σmax bands (Figs 5.17/5.18), the coefficient of
// variation of window counts (Figs 5.19/5.20), and the ρ-values of the
// independent and paired t-tests (Figs 5.21–5.24).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	rng := flag.String("range", "full", "PER range: full or zoom")
	points := flag.Int("points", 7, "log-spaced PER points")
	samples := flag.Int("samples", 5, "repetitions per point per configuration (thesis: 10/20)")
	errors := flag.Int("errors", 15, "logical errors per run (thesis: 50)")
	maxWindows := flag.Int("maxwindows", 250000, "window cap per run")
	etype := flag.String("type", "x", "logical error type: x or z")
	seed := flag.Int64("seed", 99, "base seed")
	workers := flag.Int("workers", 0, "Monte-Carlo worker pool size (0 = all CPUs); results are identical for any value")
	flag.Parse()

	// Validate every flag up front: a bad invocation exits with a usage
	// error before any simulation starts, never after a partial run.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ttest: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case flag.NArg() > 0:
		fail("unexpected argument %q", flag.Arg(0))
	case *rng != "full" && *rng != "zoom":
		fail("unknown range %q (want full or zoom)", *rng)
	case !strings.EqualFold(*etype, "x") && !strings.EqualFold(*etype, "z"):
		fail("unknown type %q (want x or z)", *etype)
	case *points < 1:
		fail("-points must be >= 1, got %d", *points)
	case *samples < 2:
		fail("-samples must be >= 2 (the t-tests need two per configuration), got %d", *samples)
	case *errors < 1:
		fail("-errors must be >= 1, got %d", *errors)
	case *maxWindows < 1:
		fail("-maxwindows must be >= 1, got %d", *maxWindows)
	case *workers < 0:
		fail("-workers must be >= 0, got %d", *workers)
	}

	lo, hi := 1e-4, 1e-2
	if *rng == "zoom" {
		lo, hi = 3e-4, 5e-4
	}
	et := experiments.LogicalX
	if strings.EqualFold(*etype, "z") {
		et = experiments.LogicalZ
	}

	fmt.Fprintf(os.Stderr, "paired sweeps: %d points × %d samples × 2 configurations...\n", *points, *samples)
	pair, err := experiments.RunPairedSweeps(experiments.SweepConfig{
		PERs:             experiments.LogSpace(lo, hi, *points),
		Samples:          *samples,
		ErrorType:        et,
		MaxLogicalErrors: *errors,
		MaxWindows:       *maxWindows,
		BaseSeed:         *seed,
		Workers:          *workers,
		Progress: func(i int, per float64) {
			fmt.Fprintf(os.Stderr, "  point %d/%d (PER=%.3e)\n", i+1, *points, per)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttest:", err)
		os.Exit(1)
	}

	fmt.Printf("# absolute LER difference δPL = PL(no PF) − PL(PF), logical %s errors (Figs 5.17/5.18)\n", et)
	fmt.Printf("%-12s %-14s %-12s %s\n", "PER", "delta", "sigma_max", "within ±sigma_max?")
	within := 0
	diffs := pair.DiffSeries()
	for _, d := range diffs {
		in := "yes"
		if d.Delta > d.SigmaMax || d.Delta < -d.SigmaMax {
			in = "no"
		} else {
			within++
		}
		fmt.Printf("%-12.4e %+-14.4e %-12.4e %s\n", d.PER, d.Delta, d.SigmaMax, in)
	}
	fmt.Printf("-> %d/%d points within ±σmax (thesis: nearly all)\n\n", within, len(diffs))

	fmt.Println("# coefficient of variation of window counts (Figs 5.19/5.20; thesis mean ≈13%)")
	fmt.Printf("%-12s %-12s %-12s\n", "PER", "cv_noPF", "cv_PF")
	var cvSum float64
	cvs := pair.CVSeries()
	for _, c := range cvs {
		fmt.Printf("%-12.4e %-12.4f %-12.4f\n", c.PER, c.CVWithout, c.CVWith)
		cvSum += (c.CVWithout + c.CVWith) / 2
	}
	fmt.Printf("-> mean CV: %.1f%%\n\n", 100*cvSum/float64(len(cvs)))

	ts, err := pair.TTestSeries()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttest:", err)
		os.Exit(1)
	}
	fmt.Println("# t-test ρ-values per PER (Figs 5.21-5.24)")
	fmt.Printf("%-12s %-14s %-14s\n", "PER", "independent", "paired")
	for _, p := range ts {
		fmt.Printf("%-12.4e %-14.4f %-14.4f\n", p.PER, p.IndependentP, p.PairedPVal)
	}
	fmt.Printf("-> mean independent ρ: %.3f (thesis: ≈0.5, the null expectation)\n", experiments.MeanP(ts))
	if experiments.Significant(ts) {
		fmt.Println("-> CONSISTENTLY SIGNIFICANT: the Pauli frame changed the LER (contradicts the thesis)")
		os.Exit(1)
	}
	fmt.Println("-> no statistically significant Pauli frame effect on the LER (thesis conclusion reproduced)")
}
