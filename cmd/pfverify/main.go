// Command pfverify reproduces the Pauli-frame verification experiments of
// thesis §5.2: random Clifford+T circuits executed with and without a
// Pauli frame layer must yield the same final quantum state up to global
// phase (Listings 5.3–5.6), and the odd-Bell-state workload on two ninja
// stars must yield the same measurement histogram (Fig 5.7).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
	"repro/internal/randcirc"
	"repro/internal/statevec"
	"repro/internal/surface"
)

func main() {
	iters := flag.Int("iters", 100, "random-circuit iterations (thesis: 100)")
	qubits := flag.Int("qubits", 10, "random-circuit register width (thesis: 10)")
	ngates := flag.Int("gates", 1000, "gates per random circuit (thesis: 1000)")
	bell := flag.Bool("bell", false, "run the odd-Bell-state histogram experiment instead (Fig 5.7)")
	bellIters := flag.Int("belliters", 100, "odd-Bell iterations (thesis: 100)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 1, "state-vector kernel goroutines (0 = all CPUs); results are identical for any value")
	verbose := flag.Bool("v", false, "print the example states of the first iteration (Listings 5.3-5.6)")
	flag.Parse()
	// Check every flag before any work: a usage error exits 2.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pfverify: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case flag.NArg() > 0:
		usage("unexpected argument %q", flag.Arg(0))
	case *iters < 1 || *bellIters < 1:
		usage("-iters and -belliters must be >= 1, got %d and %d", *iters, *bellIters)
	case *qubits < 1 || *qubits > statevec.MaxQubits:
		usage("-qubits must be in 1..%d (the state-vector range), got %d", statevec.MaxQubits, *qubits)
	case *ngates < 0 || *workers < 0:
		usage("-gates and -workers must be >= 0, got %d and %d", *ngates, *workers)
	}

	if *bell {
		runOddBell(*bellIters, *seed, *workers)
		return
	}
	runRandomCircuits(*iters, *qubits, *ngates, *seed, *workers, *verbose)
}

func runRandomCircuits(iters, qubits, ngates int, seed int64, workers int, verbose bool) {
	fmt.Printf("random-circuit Pauli frame verification: %d iterations, %d qubits, %d gates each\n",
		iters, qubits, ngates)
	for it := 0; it < iters; it++ {
		s := seed + int64(it)
		circ := randcirc.Generate(randcirc.Config{
			Qubits: qubits, Gates: ngates, IncludeIdentity: true,
		}, rand.New(rand.NewSource(s)))

		ref := layers.NewQxCore(rand.New(rand.NewSource(s * 31)))
		ref.SetWorkers(workers)
		check(ref.CreateQubits(qubits))
		_, err := qpdo.Run(ref, circ.Clone())
		check(err)

		qx := layers.NewQxCore(rand.New(rand.NewSource(s * 31)))
		qx.SetWorkers(workers)
		pf := layers.NewPauliFrameLayer(qx)
		check(pf.CreateQubits(qubits))
		_, err = qpdo.Run(pf, circ.Clone())
		check(err)

		if verbose && it == 0 {
			fmt.Println("\n--- reference state (no Pauli frame), cf. Listing 5.3:")
			fmt.Print(ref.Vector().SupportString(1e-9))
			fmt.Println("--- state with Pauli frame before flushing, cf. Listing 5.4:")
			fmt.Print(qx.Vector().SupportString(1e-9))
			fmt.Println("--- Pauli frame status, cf. Listing 5.5:")
			fmt.Print(pf.PFU.Frame.String())
		}

		check(pf.Flush())

		if verbose && it == 0 {
			fmt.Println("--- state with Pauli frame after flushing, cf. Listing 5.6:")
			fmt.Print(qx.Vector().SupportString(1e-9))
			fmt.Println()
		}

		ok, phase := statevec.EqualUpToGlobalPhase(ref.Vector(), qx.Vector(), 1e-9)
		if !ok {
			fmt.Printf("iteration %d: STATES DIFFER — Pauli frame mechanism broken\n", it)
			os.Exit(1)
		}
		if verbose && it == 0 {
			fmt.Printf("states equal up to global phase %v\n\n", phase)
		}
	}
	fmt.Printf("PASS: all %d random circuits yield identical states up to global phase\n", iters)
}

func runOddBell(iters int, seed int64, workers int) {
	fmt.Printf("odd Bell state (|01⟩_L+|10⟩_L)/√2 on two ninja stars, %d iterations\n", iters)
	for _, withPF := range []bool{true, false} {
		hist := map[string]int{}
		for it := 0; it < iters; it++ {
			qx := layers.NewQxCore(rand.New(rand.NewSource(seed + int64(it))))
			qx.SetWorkers(workers)
			var below qpdo.Core = qx
			var pf *layers.PauliFrameLayer
			if withPF {
				pf = layers.NewPauliFrameLayer(qx)
				below = pf
			}
			star := surface.NewNinjaStarLayer(below, surface.Config{Ancilla: surface.AncillaSharedSingle})
			check(star.CreateQubits(2))
			c := circuit.New().
				Add(gates.Prep, 0).Add(gates.Prep, 1).
				Add(gates.H, 0).
				Add(gates.CNOT, 0, 1).
				Add(gates.X, 0).
				Add(gates.Measure, 0).Add(gates.Measure, 1)
			res, err := qpdo.Run(star, c)
			check(err)
			hist[fmt.Sprintf("|%d%d>", res.Last(0), res.Last(1))]++
		}
		label := "without"
		if withPF {
			label = "with"
		}
		fmt.Printf("\nhistogram %s Pauli frame (cf. Fig 5.7):\n", label)
		for _, state := range []string{"|00>", "|01>", "|10>", "|11>"} {
			fmt.Printf("  %s  %3d  %s\n", state, hist[state], bar(hist[state]))
		}
		if hist["|00>"]+hist["|11>"] != 0 {
			fmt.Println("FAIL: correlated outcomes observed for the odd Bell state")
			os.Exit(1)
		}
	}
	fmt.Println("\nPASS: only anti-correlated outcomes, matching the expected odd Bell statistics")
}

func bar(n int) string {
	out := make([]byte, n/2)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfverify:", err)
		os.Exit(1)
	}
}
