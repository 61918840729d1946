package circuit

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gates"
)

func TestBuilders(t *testing.T) {
	c := New()
	c.Add(gates.H, 0)
	c.Add(gates.CNOT, 0, 1)
	s := c.AppendSlot()
	c.AddToSlot(s, gates.Measure, 0)
	c.AddToSlot(s, gates.Measure, 1)
	if c.NumSlots() != 3 {
		t.Fatalf("NumSlots = %d, want 3", c.NumSlots())
	}
	if c.NumOps() != 4 {
		t.Fatalf("NumOps = %d, want 4", c.NumOps())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.MaxQubit() != 1 {
		t.Errorf("MaxQubit = %d, want 1", c.MaxQubit())
	}
	qs := c.Qubits()
	if !qs[0] || !qs[1] || len(qs) != 2 {
		t.Errorf("Qubits = %v", qs)
	}
}

func TestValidateConflicts(t *testing.T) {
	c := New()
	s := c.AppendSlot()
	c.AddToSlot(s, gates.H, 0)
	c.AddToSlot(s, gates.X, 0)
	if err := c.Validate(); err == nil {
		t.Error("expected conflict error for qubit reuse in one slot")
	}

	c2 := New()
	c2.AddParallel(Operation{Gate: gates.CNOT, Qubits: []int{2, 2}})
	if err := c2.Validate(); err == nil {
		t.Error("expected error for repeated qubit within an operation")
	}

	c3 := New()
	c3.AddParallel(Operation{Gate: gates.X, Qubits: []int{-1}})
	if err := c3.Validate(); err == nil {
		t.Error("expected error for negative qubit")
	}
}

func TestNewOpArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewOp should panic on arity mismatch")
		}
	}()
	NewOp(gates.CNOT, 0)
}

func TestCountClass(t *testing.T) {
	c := New()
	c.Add(gates.X, 0).Add(gates.Z, 1).Add(gates.H, 0).Add(gates.T, 1)
	c.Add(gates.Prep, 2).Add(gates.Measure, 2)
	if got := c.CountClass(gates.ClassPauli); got != 2 {
		t.Errorf("pauli count = %d, want 2", got)
	}
	if got := c.CountClass(gates.ClassClifford); got != 1 {
		t.Errorf("clifford count = %d, want 1", got)
	}
	if got := c.CountClass(gates.ClassNonClifford); got != 1 {
		t.Errorf("non-clifford count = %d, want 1", got)
	}
	if got := c.CountClass(gates.ClassReset); got != 1 {
		t.Errorf("reset count = %d, want 1", got)
	}
	if got := c.CountClass(gates.ClassMeasure); got != 1 {
		t.Errorf("measure count = %d, want 1", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New().Add(gates.CNOT, 0, 1)
	cp := c.Clone()
	cp.Slots[0].Ops[0].Qubits[0] = 9
	if c.Slots[0].Ops[0].Qubits[0] != 0 {
		t.Error("Clone shares qubit slices with the original")
	}
	cp.Add(gates.H, 2)
	if c.NumSlots() != 1 {
		t.Error("Clone shares slot storage with the original")
	}
}

func TestAppend(t *testing.T) {
	a := New().Add(gates.H, 0)
	b := New().Add(gates.X, 1).Add(gates.Measure, 1)
	a.Append(b)
	if a.NumSlots() != 3 || a.NumOps() != 3 {
		t.Errorf("Append: slots=%d ops=%d", a.NumSlots(), a.NumOps())
	}
}

func TestStringRendering(t *testing.T) {
	c := New().Add(gates.CNOT, 0, 1)
	s := c.String()
	if !strings.Contains(s, "cnot q0,q1") {
		t.Errorf("String() = %q", s)
	}
	op := NewOp(gates.H, 3)
	if op.String() != "h q3" {
		t.Errorf("op.String() = %q", op.String())
	}
}

func TestEmptyCircuit(t *testing.T) {
	c := New()
	if c.MaxQubit() != -1 {
		t.Errorf("MaxQubit of empty = %d, want -1", c.MaxQubit())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("empty circuit should validate: %v", err)
	}
}

// TestResetReusesStorage rebuilds a circuit after Reset: the rebuild
// allocates nothing, holds only the new operations, and AddParallel's
// copy keeps the circuit independent of the caller's slice.
func TestResetReusesStorage(t *testing.T) {
	ops := []Operation{NewOp(gates.H, 0), NewOp(gates.CNOT, 1, 2)}
	c := New().Add(gates.X, 3).Add(gates.X, 4).Add(gates.X, 5)
	build := func() {
		c.Reset()
		c.AddParallel(ops...)
		c.AddParallel(ops[:1]...)
	}
	build()
	if allocs := testing.AllocsPerRun(10, build); allocs != 0 {
		t.Errorf("rebuild after Reset allocates %v times", allocs)
	}
	if c.NumSlots() != 2 || c.NumOps() != 3 {
		t.Fatalf("rebuilt circuit:\n%s", c)
	}
	ops[0] = NewOp(gates.X, 5)
	if c.Slots[0].Ops[0].Gate != gates.H || c.Slots[1].Ops[0].Gate != gates.H {
		t.Error("AddParallel shares its operation array with the caller")
	}
}

func TestPool(t *testing.T) {
	var p Pool
	a, b := p.Get(), p.Get()
	if a == b {
		t.Fatal("Get handed out one circuit twice")
	}
	a.Add(gates.H, 0)
	p.Recycle()
	if c := p.Get(); c != a || c.NumSlots() != 0 {
		t.Errorf("Get after Recycle = %p with %d slots, want the first circuit (%p) empty", c, c.NumSlots(), a)
	}
	if c := p.Get(); c != b {
		t.Error("Get after Recycle did not reuse the second circuit")
	}
}

// TestValidateMatchesScan checks the occupancy-mask fast path against
// the general per-slot scan on random slots with collisions, negative
// qubits and qubits on both sides of 64: the verdicts and error texts
// must agree.
func TestValidateMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scan := func(c *Circuit) error {
		for si := range c.Slots {
			if err := c.validateSlot(si); err != nil {
				return err
			}
		}
		return nil
	}
	var valid, invalid int
	for i := 0; i < 5000; i++ {
		lo := []int{-1, 0, 56, 120}[rng.Intn(4)]
		c := New()
		for s := 1 + rng.Intn(4); s > 0; s-- {
			var ops []Operation
			for o := 1 + rng.Intn(6); o > 0; o-- {
				qs := make([]int, 1+rng.Intn(2))
				for j := range qs {
					qs[j] = lo + rng.Intn(16)
				}
				ops = append(ops, Operation{Gate: gates.CNOT, Qubits: qs})
			}
			c.AddParallel(ops...)
		}
		got, want := c.Validate(), scan(c)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Validate = %v, scan = %v on\n%s", got, want, c)
		}
		if want == nil {
			valid++
		} else {
			invalid++
		}
	}
	if valid < 500 || invalid < 500 {
		t.Errorf("unbalanced cases: %d valid, %d invalid", valid, invalid)
	}
}
