// Command logicalops reproduces the ninja-star logical-operation
// verification of thesis §5.1: initialization to |0⟩_L (Listing 5.1),
// the |1⟩_L state (Listing 5.2), the logical Hadamard behaviour, and the
// CNOT_L / CZ_L truth tables (Tables 5.5 and 5.6).
//
// Usage:
//
//	logicalops [-seed n]
//
// Any argument exits 2 before any work.
package main

import (
	"flag"
	"fmt"
	"math/cmplx"
	"math/rand"
	"os"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
	"repro/internal/surface"
)

func main() {
	seed := flag.Int64("seed", 7, "RNG seed")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "logicalops: unexpected argument %q (it takes only -seed)\n", flag.Arg(0))
		os.Exit(2)
	}

	fmt.Println("=== |0⟩_L after initialization (thesis Listing 5.1) ===")
	l, qx := oneStar(*seed)
	check(runCirc(l, circuit.New().Add(gates.Prep, 0)))
	printDataState(l, qx)

	fmt.Println("\n=== |1⟩_L = X_L |0⟩_L (thesis Listing 5.2) ===")
	check(runCirc(l, circuit.New().Add(gates.X, 0)))
	printDataState(l, qx)

	fmt.Println("\n=== logical Hadamard (thesis §5.1.4) ===")
	l2, _ := oneStar(*seed + 1)
	check(runCirc(l2, circuit.New().Add(gates.Prep, 0).Add(gates.H, 0)))
	out, err := l2.ProbeXL(0)
	check(err)
	fmt.Printf("X_L probe on H_L|0⟩_L: %+d  (want +1: the state is |+⟩_L)\n", 1-2*out)
	fmt.Printf("lattice rotation: %s\n", l2.Star(0).Rotation)
	check(runCirc(l2, circuit.New().Add(gates.Z, 0)))
	out, err = l2.ProbeXL(0)
	check(err)
	fmt.Printf("X_L probe after Z_L: %+d  (want -1: the state is |−⟩_L)\n", 1-2*out)

	fmt.Println("\n=== CNOT_L truth table (thesis Table 5.5) ===")
	fmt.Println("initial    expected   simulated")
	for i, cse := range []struct{ c, t, wc, wt int }{
		{0, 0, 0, 0}, {1, 0, 1, 1}, {0, 1, 0, 1}, {1, 1, 1, 0},
	} {
		mc, mt := twoStarTruth(*seed+int64(10+i), gates.CNOT, cse.c, cse.t)
		status := "ok"
		if mc != cse.wc || mt != cse.wt {
			status = "MISMATCH"
		}
		fmt.Printf("|%d%d>_L     |%d%d>_L     |%d%d>_L   %s\n",
			cse.c, cse.t, cse.wc, cse.wt, mc, mt, status)
		if status != "ok" {
			os.Exit(1)
		}
	}

	fmt.Println("\n=== CZ_L phase table (thesis Table 5.6) ===")
	fmt.Println("initial    expected     simulated-phase")
	for i, cse := range []struct{ a, b int }{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		ph := twoStarCZPhase(*seed+int64(20+i), cse.a, cse.b)
		want := complex(1, 0)
		label := fmt.Sprintf("+|%d%d>_L", cse.a, cse.b)
		if cse.a == 1 && cse.b == 1 {
			want = -1
			label = "-|11>_L"
		}
		status := "ok"
		if cmplx.Abs(ph-want) > 1e-6 {
			status = "MISMATCH"
		}
		fmt.Printf("|%d%d>_L     %-10s   %+.3f%+.3fi   %s\n",
			cse.a, cse.b, label, real(ph), imag(ph), status)
		if status != "ok" {
			os.Exit(1)
		}
	}
	fmt.Println("\nPASS: all logical operations verified")
}

func oneStar(seed int64) (*surface.NinjaStarLayer, *layers.QxCore) {
	qx := layers.NewQxCore(rand.New(rand.NewSource(seed)))
	l := surface.NewNinjaStarLayer(qx, surface.Config{Ancilla: surface.AncillaDedicated})
	check(l.CreateQubits(1))
	return l, qx
}

func runCirc(l *surface.NinjaStarLayer, c *circuit.Circuit) error {
	_, err := qpdo.Run(l, c)
	return err
}

func printDataState(l *surface.NinjaStarLayer, qx *layers.QxCore) {
	keep := make([]int, surface.NumData)
	for i := range keep {
		keep[i] = l.Star(0).Data[i]
	}
	sub, err := qx.Vector().ExtractSubsystem(keep)
	check(err)
	fmt.Print(sub.SupportString(1e-9))
}

func twoStarTruth(seed int64, g *gates.Gate, c, t int) (int, int) {
	qx := layers.NewQxCore(rand.New(rand.NewSource(seed)))
	l := surface.NewNinjaStarLayer(qx, surface.Config{Ancilla: surface.AncillaSharedSingle})
	check(l.CreateQubits(2))
	prep := circuit.New().Add(gates.Prep, 0).Add(gates.Prep, 1)
	if c == 1 {
		prep.Add(gates.X, 0)
	}
	if t == 1 {
		prep.Add(gates.X, 1)
	}
	prep.Add(g, 0, 1).Add(gates.Measure, 0).Add(gates.Measure, 1)
	res, err := qpdo.Run(l, prep)
	check(err)
	return res.Last(0), res.Last(1)
}

func twoStarCZPhase(seed int64, a, b int) complex128 {
	qx := layers.NewQxCore(rand.New(rand.NewSource(seed)))
	l := surface.NewNinjaStarLayer(qx, surface.Config{Ancilla: surface.AncillaSharedSingle})
	check(l.CreateQubits(2))
	prep := circuit.New().Add(gates.Prep, 0).Add(gates.Prep, 1)
	if a == 1 {
		prep.Add(gates.X, 0)
	}
	if b == 1 {
		prep.Add(gates.X, 1)
	}
	_, err := qpdo.Run(l, prep)
	check(err)
	before := qx.Vector().Clone()
	_, err = qpdo.Run(l, circuit.New().Add(gates.CZ, 0, 1))
	check(err)
	after := qx.Vector().Amplitudes()
	ref := before.Amplitudes()
	for i := range ref {
		if cmplx.Abs(ref[i]) > 1e-9 {
			return after[i] / ref[i]
		}
	}
	return 0
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "logicalops:", err)
		os.Exit(1)
	}
}
