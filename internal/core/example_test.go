package core_test

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gates"
)

// The Pauli arbiter routes each operation category differently
// (thesis Table 3.1): Pauli gates are absorbed, Clifford gates map the
// records and pass through, non-Clifford gates force a flush.
func Example() {
	pfu := core.NewPFU(2)

	ops := []circuit.Operation{
		circuit.NewOp(gates.X, 0),       // absorbed
		circuit.NewOp(gates.H, 0),       // record X→Z, forwarded
		circuit.NewOp(gates.CNOT, 0, 1), // records map, forwarded
		circuit.NewOp(gates.T, 0),       // flush Z first, then T
	}
	var fwd []circuit.Operation // reused: Process appends to it
	for _, op := range ops {
		fwd, _ = pfu.Process(fwd[:0], op)
		names := make([]string, len(fwd))
		for i, f := range fwd {
			names[i] = string(f.Gate.Name)
		}
		fmt.Printf("%-4s -> forwarded %v\n", op.Gate.Name, names)
	}
	fmt.Printf("records: q0=%s q1=%s\n", pfu.Frame.Record(0), pfu.Frame.Record(1))

	// Output:
	// x    -> forwarded []
	// h    -> forwarded [h]
	// cnot -> forwarded [cnot]
	// t    -> forwarded [z t]
	// records: q0=I q1=I
}
