package layers

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qpdo"
)

// TestPauliFrameAddIsAtomic is the regression test for a rejected Add
// poisoning the layer: the next layer refuses {T q0; Measure q1}, and
// afterwards the records, statistics, SlotsSaved and the queue of
// pending measurement flips must be as they were before the call, so
// later runs keep working.
func TestPauliFrameAddIsAtomic(t *testing.T) {
	pf := NewPauliFrameLayer(NewChpCore(rand.New(rand.NewSource(31))))
	if err := pf.CreateQubits(2); err != nil {
		t.Fatal(err)
	}
	if _, err := qpdo.Run(pf, circuit.New().Add(gates.X, 0).Add(gates.Z, 1)); err != nil {
		t.Fatal(err)
	}
	recs, stats, saved := pf.PFU.Frame.AppendRecords(nil), pf.PFU.Stats, pf.SlotsSaved

	bad := circuit.New().Add(gates.T, 0).Add(gates.Measure, 1)
	if err := pf.Add(bad); err == nil {
		t.Fatal("ChpCore accepted a T gate")
	}
	if got := pf.PFU.Frame.AppendRecords(nil); !reflect.DeepEqual(got, recs) {
		t.Errorf("records after the rejected Add = %v, want %v", got, recs)
	}
	if pf.PFU.Stats != stats || pf.SlotsSaved != saved {
		t.Errorf("stats after the rejected Add = %+v, SlotsSaved %d; want %+v, %d",
			pf.PFU.Stats, pf.SlotsSaved, stats, saved)
	}
	for i := 0; i < 3; i++ {
		res, err := qpdo.Run(pf, circuit.New().Add(gates.Measure, 0))
		if err != nil {
			t.Fatalf("run %d after the rejected Add: %v", i, err)
		}
		if res.Last(0) != 1 {
			t.Errorf("run %d: measurement = %d, want 1 (tracked X)", i, res.Last(0))
		}
	}
}

// failOnce fails the first Execute after running the queue below it,
// the way a core drops its queue on an execution error.
type failOnce struct {
	qpdo.Forwarder
	failed bool
}

func (f *failOnce) Execute() (*qpdo.Result, error) {
	res, err := f.Next.Execute()
	if err == nil && !f.failed {
		f.failed = true
		return nil, fmt.Errorf("injected execution failure")
	}
	return res, err
}

// TestPauliFrameFailedExecuteDropsFlips checks that a failed Execute
// leaves no pending measurement flips behind: the queue they belonged
// to is gone.
func TestPauliFrameFailedExecuteDropsFlips(t *testing.T) {
	below := &failOnce{Forwarder: qpdo.Forwarder{Next: NewChpCore(rand.New(rand.NewSource(32)))}}
	pf := NewPauliFrameLayer(below)
	if err := pf.CreateQubits(1); err != nil {
		t.Fatal(err)
	}
	if _, err := qpdo.Run(pf, circuit.New().Add(gates.Measure, 0)); err == nil {
		t.Fatal("the injected failure did not surface")
	}
	res, err := qpdo.Run(pf, circuit.New().Add(gates.X, 0).Add(gates.Measure, 0))
	if err != nil {
		t.Fatalf("run after the failed Execute: %v", err)
	}
	if res.Last(0) != 1 {
		t.Errorf("measurement = %d, want 1", res.Last(0))
	}
}

// randomSlotCircuit draws a Clifford circuit with measurements and
// resets whose slots hold several operations on disjoint qubits, so the
// error layer emits pre- and post-slots and the Pauli frame absorbs
// whole slots.
func randomSlotCircuit(rng *rand.Rand, qubits, slots int) *circuit.Circuit {
	single := []*gates.Gate{gates.X, gates.Y, gates.Z, gates.H, gates.S, gates.Prep, gates.Measure}
	double := []*gates.Gate{gates.CNOT, gates.CZ, gates.SWAP}
	c := circuit.New()
	for c.NumSlots() < slots {
		var ops []circuit.Operation
		perm := rng.Perm(qubits)
		for len(perm) > 0 && rng.Intn(4) > 0 {
			if len(perm) >= 2 && rng.Intn(3) == 0 {
				ops = append(ops, circuit.NewOp(double[rng.Intn(len(double))], perm[0], perm[1]))
				perm = perm[2:]
				continue
			}
			ops = append(ops, circuit.NewOp(single[rng.Intn(len(single))], perm[0]))
			perm = perm[1:]
		}
		if len(ops) > 0 {
			c.AddParallel(ops...)
		}
	}
	return c
}

// TestPooledCircuitsNeverAlias runs the same circuits through PF on/off ×
// error layer on/off stacks twice: one Add per Execute, and in batches
// of several Adds before one Execute. If a layer recycled an output
// circuit before the Execute that consumed it, a later Add in the batch
// would overwrite a queued circuit and the measurements or error counts
// would differ. The callers' circuits must come back untouched, and an
// out-of-range qubit must come back as an error, not a panic.
func TestPooledCircuitsNeverAlias(t *testing.T) {
	const qubits = 6
	gen := rand.New(rand.NewSource(41))
	circs := make([]*circuit.Circuit, 12)
	want := make([]*circuit.Circuit, len(circs))
	for i := range circs {
		circs[i] = randomSlotCircuit(gen, qubits, 2+gen.Intn(6))
		want[i] = circs[i].Clone()
	}
	for _, withPF := range []bool{false, true} {
		for _, withErr := range []bool{false, true} {
			t.Run(fmt.Sprintf("pf=%v/error=%v", withPF, withErr), func(t *testing.T) {
				build := func() (qpdo.Core, *ErrorLayer) {
					var top qpdo.Core = NewChpCore(rand.New(rand.NewSource(42)))
					var el *ErrorLayer
					if withErr {
						el = NewErrorLayer(top, 0.05, rand.New(rand.NewSource(43)))
						top = el
					}
					if withPF {
						top = NewPauliFrameLayer(top)
					}
					if err := top.CreateQubits(qubits); err != nil {
						t.Fatal(err)
					}
					return top, el
				}
				run := func(batch int) ([]qpdo.Measurement, *ErrorLayer) {
					top, el := build()
					var ms []qpdo.Measurement
					for i := 0; i < len(circs); i += batch {
						for _, c := range circs[i : i+batch] {
							if err := top.Add(c); err != nil {
								t.Fatal(err)
							}
						}
						res, err := top.Execute()
						if err != nil {
							t.Fatal(err)
						}
						ms = append(ms, res.Measurements...)
					}
					return ms, el
				}
				one, elOne := run(1)
				for _, batch := range []int{3, 4} {
					got, el := run(batch)
					if !reflect.DeepEqual(got, one) {
						t.Errorf("batches of %d: measurements differ from one Add per Execute", batch)
					}
					if withErr && el.Stats != elOne.Stats {
						t.Errorf("batches of %d: error stats %+v, want %+v", batch, el.Stats, elOne.Stats)
					}
				}
				if withErr && elOne.Stats.Total() == 0 {
					t.Error("the error layer injected nothing; the test exercises no error slots")
				}
				for i := range circs {
					if !reflect.DeepEqual(circs[i], want[i]) {
						t.Fatalf("circuit %d was modified by the stack:\n%s\nwant\n%s", i, circs[i], want[i])
					}
				}

				top, _ := build()
				for _, q := range []int{qubits + 3, -1} {
					c := circuit.New().AddParallel(circuit.Operation{Gate: gates.H, Qubits: []int{q}})
					if err := top.Add(c); err == nil {
						t.Errorf("qubit %d was accepted", q)
					}
				}
			})
		}
	}
}

// TestErrorLayerRejectsOutOfRangeQubits drives qubits outside the stack
// straight into an error layer that errs on every operation: the
// injected error on such a qubit must reach the next layer's validation
// and come back as an error, not index the layer's tables.
func TestErrorLayerRejectsOutOfRangeQubits(t *testing.T) {
	el := NewErrorLayer(NewChpCore(rand.New(rand.NewSource(44))), 1.0, rand.New(rand.NewSource(45)))
	if err := el.CreateQubits(2); err != nil {
		t.Fatal(err)
	}
	for _, op := range []circuit.Operation{
		{Gate: gates.H, Qubits: []int{5}},
		{Gate: gates.Measure, Qubits: []int{2}},
		{Gate: gates.CNOT, Qubits: []int{0, 7}},
		{Gate: gates.X, Qubits: []int{-1}},
	} {
		if err := el.Add(circuit.New().AddParallel(op)); err == nil {
			t.Errorf("%v was accepted", op)
		}
	}
	if _, err := qpdo.Run(el, circuit.New().Add(gates.H, 1)); err != nil {
		t.Errorf("valid circuit after the rejected ones: %v", err)
	}
}

// TestChpCoreExecuteAllocs pins an Execute at two allocations: the
// result and its measurement slice, sized from the queued measurements.
func TestChpCoreExecuteAllocs(t *testing.T) {
	c := NewChpCore(rand.New(rand.NewSource(46)))
	if err := c.CreateQubits(3); err != nil {
		t.Fatal(err)
	}
	circ := circuit.New().Add(gates.H, 0).Add(gates.CNOT, 0, 1)
	s := circ.AppendSlot()
	for q := 0; q < 3; q++ {
		circ.AddToSlot(s, gates.Measure, q)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 2; i++ {
			if err := c.Add(circ); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Execute()
		if err != nil || len(res.Measurements) != 6 {
			t.Fatalf("Execute = %v, %v", res, err)
		}
	})
	if allocs > 2 {
		t.Errorf("Add+Add+Execute allocates %v times, want at most 2", allocs)
	}
}

// TestLayerAddsAllocFree pins the steady state of the two rewriting
// layers and the counter at zero allocations: after a warm-up, adding a
// circuit through counter → PF → counter → error → ChpCore allocates
// nothing but the core's result.
func TestLayerAddsAllocFree(t *testing.T) {
	ch := NewChpCore(rand.New(rand.NewSource(47)))
	mid := NewCounterLayer(NewErrorLayer(ch, 0.05, rand.New(rand.NewSource(48))))
	top := NewCounterLayer(NewPauliFrameLayer(mid))
	if err := top.CreateQubits(6); err != nil {
		t.Fatal(err)
	}
	circ := randomSlotCircuit(rand.New(rand.NewSource(49)), 6, 12)
	for i := 0; i < 20; i++ {
		if _, err := qpdo.Run(top, circ); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := qpdo.Run(top, circ); err != nil {
			t.Fatal(err)
		}
		top.ResetStats()
	})
	if allocs > 2 {
		t.Errorf("one run through the stack allocates %v times, want at most 2 (the core's result)", allocs)
	}
}
