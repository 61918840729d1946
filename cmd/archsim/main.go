// Command archsim runs an assembled QISA program (thesis §3.5.1 format)
// on the functional quantum-control-unit model: instruction decode,
// Q-symbol-table address translation, Pauli arbiter + Pauli Frame Unit
// routing, QEC cycle generation with QED decoding, and a mock physical
// execution layer over a simulated chip.
//
// Usage:
//
//	archsim [-chip chp|qx] [-qubits n] [-seed n] [-trace] [program.qisa]
//
// The program is read from the named file, or from stdin without one.
// A bad flag or a second argument exits 2 before any work.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/arch"
	"repro/internal/layers"
	"repro/internal/qpdo"
	"repro/internal/statevec"
	"repro/internal/surface"
)

// maxChpQubits caps -qubits on the chp chip: a tableau of 4096 qubits
// takes about 8 MiB.
const maxChpQubits = 4096

func main() {
	chipKind := flag.String("chip", "chp", "simulated chip back-end: chp or qx")
	qubits := flag.Int("qubits", surface.NumQubits, "physical qubits on the chip (17..4096 on chp, 17..30 on qx)")
	seed := flag.Int64("seed", 1, "RNG seed")
	trace := flag.Bool("trace", false, "dump the PEL waveform trace")
	flag.Parse()
	// Check every flag before any work: a usage error exits 2.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "archsim: "+format+"\n", args...)
		os.Exit(2)
	}
	maxQubits, ok := map[string]int{"chp": maxChpQubits, "qx": statevec.MaxQubits}[*chipKind]
	switch {
	case !ok:
		usage("unknown chip %q (want chp or qx)", *chipKind)
	case *qubits < surface.NumQubits || *qubits > maxQubits:
		usage("-qubits must be in %d..%d on the %s chip, got %d", surface.NumQubits, maxQubits, *chipKind, *qubits)
	case flag.NArg() > 1:
		usage("at most one program path, got %d arguments", flag.NArg())
	}

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	check(err)
	prog, err := arch.Assemble(string(src))
	check(err)

	var chip qpdo.Core
	switch *chipKind {
	case "chp":
		chip = layers.NewChpCore(rand.New(rand.NewSource(*seed)))
	case "qx":
		chip = layers.NewQxCore(rand.New(rand.NewSource(*seed)))
	}
	check(chip.CreateQubits(*qubits))
	qcu, err := arch.NewQCU(chip)
	check(err)

	rep, err := qcu.Execute(prog)
	check(err)

	fmt.Printf("instructions:       %d\n", len(prog))
	fmt.Printf("QEC cycles:         %d\n", rep.ESMRounds)
	fmt.Printf("QED corrections:    %d (absorbed by the PFU)\n", rep.Corrections)
	fmt.Printf("measurements:       %v\n", rep.Measurements)
	st := qcu.PFU().Stats
	fmt.Printf("arbiter: %d Pauli absorbed, %d Clifford mapped, %d flush gates, %d results inverted\n",
		st.PauliAbsorbed, st.CliffordMapped, st.FlushGates, st.MeasurementsFlipped)
	fmt.Printf("PEL waveforms:      %d\n", len(qcu.PEL().Trace))
	if *trace {
		for i, e := range qcu.PEL().Trace {
			fmt.Printf("  %5d %s %v\n", i, e.Gate, e.Qubits)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "archsim:", err)
		os.Exit(1)
	}
}
