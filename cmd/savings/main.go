// Command savings regenerates the Pauli-frame savings analysis of thesis
// §5.3.2: the percentage of gates and time slots the Pauli frame filters
// during LER simulations (Figs 5.25/5.26) and the analytic upper bound on
// the relative LER improvement versus code distance (Eq. 5.12, Fig 5.27).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	points := flag.Int("points", 7, "log-spaced PER points (1e-4..1e-2)")
	samples := flag.Int("samples", 3, "repetitions per point")
	errors := flag.Int("errors", 15, "logical errors per run")
	maxWindows := flag.Int("maxwindows", 250000, "window cap per run")
	seed := flag.Int64("seed", 55, "base seed")
	boundOnly := flag.Bool("bound", false, "print only the Fig 5.27 upper-bound curve")
	tsESM := flag.Int("tsesm", 8, "time slots per ESM round for the bound")
	flag.Parse()

	// Validate every flag up front: a bad invocation exits with a usage
	// error before any simulation starts, never after a partial run.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "savings: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case flag.NArg() > 0:
		fail("unexpected argument %q", flag.Arg(0))
	case *points < 1:
		fail("-points must be >= 1, got %d", *points)
	case *samples < 1:
		fail("-samples must be >= 1, got %d", *samples)
	case *errors < 1:
		fail("-errors must be >= 1, got %d", *errors)
	case *maxWindows < 1:
		fail("-maxwindows must be >= 1, got %d", *maxWindows)
	case *tsESM < 1:
		// Eq. 5.12 is undefined below one slot per ESM round.
		fail("-tsesm must be >= 1, got %d", *tsESM)
	}

	if !*boundOnly {
		fmt.Fprintln(os.Stderr, "running PF sweeps for savings counters...")
		pts, err := experiments.RunSweep(experiments.SweepConfig{
			PERs:             experiments.LogSpace(1e-4, 1e-2, *points),
			Samples:          *samples,
			WithPauliFrame:   true,
			MaxLogicalErrors: *errors,
			MaxWindows:       *maxWindows,
			BaseSeed:         *seed,
			Progress: func(i int, per float64) {
				fmt.Fprintf(os.Stderr, "  point %d/%d (PER=%.3e)\n", i+1, *points, per)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "savings:", err)
			os.Exit(1)
		}
		fmt.Println("# gates and time slots saved by the Pauli frame (Figs 5.25/5.26)")
		fmt.Printf("%-12s %-16s %-16s\n", "PER", "gates_saved_%", "slots_saved_%")
		for _, p := range pts {
			fmt.Printf("%-12.4e %-16.4f %-16.4f\n",
				p.PER, 100*mean(p.GatesSaved), 100*mean(p.SlotsSaved))
		}
		ts := experiments.WindowTimeSlots(3, *tsESM, true)
		fmt.Printf("-> ceiling: 1 correction slot per %d-slot window = %.1f%% of slots (thesis §5.3.2)\n\n",
			ts, 100/float64(ts))
	}

	fmt.Printf("# upper bound on relative LER improvement by a Pauli frame, tsESM=%d (Eq. 5.12, Fig 5.27)\n", *tsESM)
	fmt.Printf("%-10s %-12s\n", "distance", "bound_%")
	for d := 3; d <= 11; d++ {
		b := experiments.UpperBoundRelativeImprovement(d, *tsESM)
		fmt.Printf("%-10d %-12.3f %s\n", d, 100*b, bar(int(1000*b)))
	}
	fmt.Println("-> the bound converges to 0 with distance: no LER benefit from a Pauli frame at any scale")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func bar(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
