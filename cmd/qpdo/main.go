// Command qpdo is the platform driver: it reads a QASM program (thesis
// §4.1.1 format) and executes it on a configurable QPDO control stack —
// state-vector or stabilizer core, optional Pauli frame layer, optional
// depolarizing error layer — then reports the measurement results and,
// when supported, the final quantum state.
//
// Usage:
//
//	qpdo -core qx -pf -state program.qasm
//	echo 'h q0
//	cnot q0,q1
//	{ measure q0 | measure q1 }' | qpdo -core chp -shots 10
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"repro/internal/layers"
	"repro/internal/qasm"
	"repro/internal/qpdo"
	"repro/internal/testbench"
)

func main() {
	coreKind := flag.String("core", "qx", "simulation core: qx (state vector) or chp (stabilizer)")
	usePF := flag.Bool("pf", false, "insert a Pauli frame layer")
	per := flag.Float64("per", 0, "physical error rate for a depolarizing error layer (0 = none)")
	shots := flag.Int("shots", 1, "number of executions")
	seed := flag.Int64("seed", 42, "RNG seed")
	showState := flag.Bool("state", false, "print the final quantum state (qx core flushes the frame first)")
	tb := flag.String("tb", "", "run a ready-made test bench instead of a program: bell or gates (thesis §4.2.4)")
	flag.Parse()
	// Check every flag before any work: a usage error exits 2.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "qpdo: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case *shots < 1:
		usage("-shots must be >= 1, got %d", *shots)
	case !(*per >= 0 && *per <= 1):
		usage("-per must be in [0, 1], got %v", *per)
	case *coreKind != "qx" && *coreKind != "chp":
		usage("unknown core %q (want qx or chp)", *coreKind)
	case *tb != "" && *tb != "bell" && *tb != "gates":
		usage("unknown test bench %q (want bell or gates)", *tb)
	case *tb != "" && (*per > 0 || flag.NArg() > 0):
		usage("-tb runs a ready-made bench: it takes neither -per nor a program")
	case flag.NArg() > 1:
		usage("at most one program path, got %d arguments", flag.NArg())
	}

	if *tb != "" {
		runBench(*tb, *coreKind, *usePF, *shots, *seed)
		return
	}

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	check(err)
	prog, err := qasm.Parse(string(src))
	check(err)
	fmt.Printf("parsed %d qubits, %d time slots, %d operations\n",
		prog.Qubits, prog.Circuit.NumSlots(), prog.Circuit.NumOps())

	counts := map[string]int{}
	for shot := 0; shot < *shots; shot++ {
		stack := newCore(*coreKind, rand.New(rand.NewSource(*seed+int64(shot))))
		var pf *layers.PauliFrameLayer
		if *per > 0 {
			stack = layers.NewErrorLayer(stack, *per, rand.New(rand.NewSource(*seed+int64(1000+shot))))
		}
		if *usePF {
			pf = layers.NewPauliFrameLayer(stack)
			stack = pf
		}
		check(stack.CreateQubits(prog.Qubits))
		res, err := qpdo.Run(stack, prog.Circuit.Clone())
		check(err)

		key := ""
		for _, m := range res.Measurements {
			key += fmt.Sprintf("q%d=%d ", m.Qubit, m.Value)
		}
		if key == "" {
			key = "(no measurements)"
		}
		counts[key]++

		if *showState && shot == 0 {
			if pf != nil {
				check(pf.Flush())
			}
			qs, err := stack.GetQuantumState()
			check(err)
			fmt.Println("final quantum state:")
			fmt.Print(qs.Describe())
		}
	}

	fmt.Printf("\nmeasurement histogram over %d shot(s):\n", *shots)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %4d  %s\n", counts[k], k)
	}
}

// runBench executes one of the thesis' ready-to-use test benches, bell
// or gates, against the configured stack.
func runBench(kind, coreKind string, usePF bool, shots int, seed int64) {
	factory := func(it int) (qpdo.Core, error) {
		stack := newCore(coreKind, rand.New(rand.NewSource(seed+int64(it))))
		if usePF {
			stack = layers.NewPauliFrameLayer(stack)
		}
		return stack, nil
	}
	var bench testbench.Bench = testbench.NewBellStateHisto()
	if kind == "gates" {
		bench = testbench.NewGateSupport()
		shots = 1
	}
	check(testbench.Run(bench, factory, shots))
	fmt.Print(bench.Report())
	if !bench.Passed() {
		os.Exit(1)
	}
}

// newCore builds the simulation core named by kind, qx or chp.
func newCore(kind string, rng *rand.Rand) qpdo.Core {
	if kind == "chp" {
		return layers.NewChpCore(rng)
	}
	return layers.NewQxCore(rng)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpdo:", err)
		os.Exit(1)
	}
}
