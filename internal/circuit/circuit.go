// Package circuit implements the shared quantum-circuit data structure of
// the QPDO platform (thesis Fig 4.4): a circuit is an ordered list of time
// slots, each holding operations that execute in parallel. Within one time
// slot every qubit may be involved in at most one operation, and all
// operations in a slot are assumed to take the same amount of time — the
// scheduling assumption behind the error model's idle-error insertion and
// the time-slot accounting of the Pauli-frame savings experiments.
package circuit

import (
	"fmt"
	"strings"

	"repro/internal/gates"
)

// Operation applies one gate (or pseudo-operation) to an ordered list of
// qubits. For controlled gates the control(s) come first.
type Operation struct {
	Gate   *gates.Gate
	Qubits []int
}

// NewOp builds an operation, validating arity.
func NewOp(g *gates.Gate, qubits ...int) Operation {
	if g.Arity != len(qubits) {
		panic(fmt.Sprintf("circuit: gate %s wants %d qubits, got %d", g, g.Arity, len(qubits)))
	}
	return Operation{Gate: g, Qubits: append([]int(nil), qubits...)}
}

// String renders like "cnot q0,q1".
func (o Operation) String() string {
	parts := make([]string, len(o.Qubits))
	for i, q := range o.Qubits {
		parts[i] = fmt.Sprintf("q%d", q)
	}
	return fmt.Sprintf("%s %s", o.Gate.Name, strings.Join(parts, ","))
}

// TimeSlot is a set of operations executing in parallel.
type TimeSlot struct {
	Ops []Operation
}

// Qubits returns the set of qubits touched by the slot.
func (t *TimeSlot) Qubits() map[int]bool {
	m := map[int]bool{}
	for _, op := range t.Ops {
		for _, q := range op.Qubits {
			m[q] = true
		}
	}
	return m
}

// Circuit is an ordered list of time slots.
type Circuit struct {
	Slots []TimeSlot
}

// New returns an empty circuit.
func New() *Circuit { return &Circuit{} }

// AppendSlot adds an empty time slot and returns its index. A slot
// dropped by Reset is reused together with its operation storage.
func (c *Circuit) AppendSlot() int {
	n := len(c.Slots)
	if n < cap(c.Slots) {
		c.Slots = c.Slots[:n+1]
		c.Slots[n].Ops = c.Slots[n].Ops[:0]
	} else {
		c.Slots = append(c.Slots, TimeSlot{})
	}
	return n
}

// AddToSlot places an operation into an existing slot.
func (c *Circuit) AddToSlot(slot int, g *gates.Gate, qubits ...int) *Circuit {
	c.Slots[slot].Ops = append(c.Slots[slot].Ops, NewOp(g, qubits...))
	return c
}

// Add appends a new time slot holding a single operation.
func (c *Circuit) Add(g *gates.Gate, qubits ...int) *Circuit {
	s := c.AppendSlot()
	return c.AddToSlot(s, g, qubits...)
}

// AddParallel appends one time slot holding all the given operations.
// The slot copies the operations into storage of its own (their qubit
// slices are shared, not copied), so every slot of a circuit owns its
// operation array and Reset can hand that array out again.
func (c *Circuit) AddParallel(ops ...Operation) *Circuit {
	s := c.AppendSlot()
	c.Slots[s].Ops = append(c.Slots[s].Ops, ops...)
	return c
}

// Append concatenates another circuit's slots after this one's, copying
// them as AddParallel does.
func (c *Circuit) Append(other *Circuit) *Circuit {
	for _, s := range other.Slots {
		c.AddParallel(s.Ops...)
	}
	return c
}

// Reset empties the circuit but keeps its slot and operation storage:
// rebuilding a circuit of the same shape allocates nothing.
func (c *Circuit) Reset() { c.Slots = c.Slots[:0] }

// Pool recycles the output circuits of a layer that rewrites every
// circuit it is given. Get hands out an empty circuit that keeps the
// storage of its previous use; Recycle takes back every circuit handed
// out since the last Recycle. The owner recycles only once nothing holds
// those circuits any more — for a QPDO layer, once the Execute that
// consumed them has returned (the ownership rule of qpdo.Core.Add).
type Pool struct {
	circuits []*Circuit
	used     int
}

// Get returns an empty circuit, allocating one only when every pooled
// circuit is in use.
func (p *Pool) Get() *Circuit {
	if p.used == len(p.circuits) {
		p.circuits = append(p.circuits, New())
	}
	c := p.circuits[p.used]
	p.used++
	c.Reset()
	return c
}

// Recycle returns every circuit handed out by Get to the pool.
func (p *Pool) Recycle() { p.used = 0 }

// NumSlots counts time slots.
func (c *Circuit) NumSlots() int { return len(c.Slots) }

// NumOps counts operations of all kinds.
func (c *Circuit) NumOps() int {
	n := 0
	for _, s := range c.Slots {
		n += len(s.Ops)
	}
	return n
}

// CountClass counts operations of the given class.
func (c *Circuit) CountClass(cl gates.Class) int {
	n := 0
	for _, s := range c.Slots {
		for _, op := range s.Ops {
			if op.Gate.Class == cl {
				n++
			}
		}
	}
	return n
}

// Qubits returns the set of qubits the circuit touches.
func (c *Circuit) Qubits() map[int]bool {
	m := map[int]bool{}
	for _, s := range c.Slots {
		for q := range (&s).Qubits() {
			m[q] = true
		}
	}
	return m
}

// MaxQubit returns the highest qubit index referenced, or -1 when empty.
func (c *Circuit) MaxQubit() int {
	max := -1
	for _, s := range c.Slots {
		for _, op := range s.Ops {
			for _, q := range op.Qubits {
				if q > max {
					max = q
				}
			}
		}
	}
	return max
}

// Validate checks the time-slot discipline: within each slot no qubit may
// appear in more than one operation, and no operation may repeat a qubit.
// Validate runs on every Add at each layer of a stack, so it is linear:
// a slot whose qubits all lie below 64 is checked against a 64-bit
// occupancy mask. Only a slot that breaks the rule, or that uses a qubit
// of 64 or more, is rescanned by validateSlot, which finds and words the
// first offence.
func (c *Circuit) Validate() error {
slots:
	for si := range c.Slots {
		var seen uint64
		for _, op := range c.Slots[si].Ops {
			for _, q := range op.Qubits {
				bit := uint64(1) << (uint(q) & 63)
				if uint(q) >= 64 || seen&bit != 0 {
					if err := c.validateSlot(si); err != nil {
						return err
					}
					continue slots
				}
				seen |= bit
			}
		}
	}
	return nil
}

// validateSlot is the general check of one slot: a scan over
// stack-allocated slices, quadratic in the slot's qubit count, that
// reports the first negative, repeated or doubly used qubit.
func (c *Circuit) validateSlot(si int) error {
	var qbuf, obuf [64]int
	s := &c.Slots[si]
	qs, os := qbuf[:0], obuf[:0]
	for oi := range s.Ops {
		op := &s.Ops[oi]
		start := len(qs)
		for _, q := range op.Qubits {
			if q < 0 {
				return fmt.Errorf("slot %d op %d: negative qubit %d", si, oi, q)
			}
			// Scan newest-first so an intra-operation duplicate is
			// reported as such even when an earlier op also used q.
			for k := len(qs) - 1; k >= 0; k-- {
				if qs[k] != q {
					continue
				}
				if k >= start {
					return fmt.Errorf("slot %d op %d: qubit %d repeated within operation", si, oi, q)
				}
				return fmt.Errorf("slot %d: qubit %d used by ops %d and %d", si, q, os[k], oi)
			}
			qs = append(qs, q)
			os = append(os, oi)
		}
	}
	return nil
}

// Clone deep-copies the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Slots: make([]TimeSlot, len(c.Slots))}
	for i, s := range c.Slots {
		ops := make([]Operation, len(s.Ops))
		for j, op := range s.Ops {
			ops[j] = Operation{Gate: op.Gate, Qubits: append([]int(nil), op.Qubits...)}
		}
		out.Slots[i].Ops = ops
	}
	return out
}

// String renders the circuit one slot per line.
func (c *Circuit) String() string {
	var b strings.Builder
	for i, s := range c.Slots {
		fmt.Fprintf(&b, "slot %d:", i)
		for _, op := range s.Ops {
			fmt.Fprintf(&b, " [%s]", op)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
