package layers

import (
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qpdo"
)

// ErrorStats counts what the error layer injected.
type ErrorStats struct {
	// SingleQubitErrors counts X/Y/Z errors after single-qubit operations.
	SingleQubitErrors int
	// TwoQubitErrors counts correlated error pairs after two-qubit gates.
	TwoQubitErrors int
	// MeasurementErrors counts X errors inserted before measurements.
	MeasurementErrors int
	// IdleErrors counts errors on idling qubits.
	IdleErrors int
	// OpsSeen counts operations (including idle identities) subjected to
	// the error channel.
	OpsSeen int
}

// Total sums all injected errors.
func (s ErrorStats) Total() int {
	return s.SingleQubitErrors + s.TwoQubitErrors + s.MeasurementErrors + s.IdleErrors
}

// ErrorLayer implements the symmetric depolarizing error model of the
// thesis (§5.3.1, [11, 19]):
//
//   - every single-qubit operation (including reset and the identity
//     applied to idling qubits) suffers an X, Y or Z error with
//     probability p/3 each;
//   - a measurement suffers an X error (result flip) with probability p,
//     inserted before the measurement;
//   - every two-qubit gate suffers one of the fifteen non-trivial
//     two-qubit Pauli combinations ({I,X,Y,Z}² minus II) with
//     probability p/15 each.
//
// Idling a qubit for one time slot counts as a physical operation, so
// removing a time slot (as the Pauli frame does for correction slots)
// removes one error opportunity for every idle qubit.
type ErrorLayer struct {
	qpdo.Forwarder
	// P is the total physical error rate per operation.
	P float64
	// Model is the Pauli channel applied to the stream.
	Model Model
	// Stats accumulates injected-error counts.
	Stats ErrorStats

	rng    *rand.Rand
	bypass bool
	// busy is the reusable per-slot occupancy scratch (indexed by
	// physical qubit), cleared after each slot instead of reallocated.
	busy []bool
	// operand is the shared index table 0..n-1 behind the injected
	// error operations: an error on qubit q takes operand[q:q+1:q+1]
	// as its qubit slice instead of allocating one.
	operand []int
	// pool holds the rewritten circuits handed to the next layer; it is
	// recycled once the Execute that consumed them has returned.
	pool circuit.Pool
	// pre and post are reusable per-slot scratch for the injected
	// errors ahead of and after the slot.
	pre, post []circuit.Operation
}

// NewErrorLayer stacks the thesis' symmetric depolarizing error layer
// with rate p above next.
func NewErrorLayer(next qpdo.Core, p float64, rng *rand.Rand) *ErrorLayer {
	return NewErrorLayerModel(next, Depolarizing(p), rng)
}

// NewErrorLayerModel stacks an error layer with an explicit channel.
func NewErrorLayerModel(next qpdo.Core, m Model, rng *rand.Rand) *ErrorLayer {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return &ErrorLayer{
		Forwarder: qpdo.Forwarder{Next: next},
		P:         m.TotalSingle(),
		Model:     m,
		rng:       rng,
	}
}

// SetBypass pauses error injection for diagnostic circuits and forwards
// the toggle.
func (e *ErrorLayer) SetBypass(on bool) {
	e.bypass = on
	e.Next.SetBypass(on)
}

// Reconfigure swaps in a new channel and RNG and clears the statistics,
// restoring the layer to its freshly built state (stack reuse across
// Monte-Carlo samples). It recycles the circuits the layer handed down,
// so nothing may be left queued below it. It panics on an invalid
// model, like the constructor.
func (e *ErrorLayer) Reconfigure(m Model, rng *rand.Rand) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	e.P = m.TotalSingle()
	e.Model = m
	e.Stats = ErrorStats{}
	e.rng = rng
	e.bypass = false
	e.pool.Recycle()
}

// Execute runs the forwarded stream and recycles the circuits it
// consumed.
func (e *ErrorLayer) Execute() (*qpdo.Result, error) {
	res, err := e.Next.Execute()
	e.pool.Recycle()
	return res, err
}

// twoQubitErrorTable lists the 15 equally likely error pairs for
// two-qubit gates; nil means identity on that operand.
var twoQubitErrorTable = func() [][2]*gates.Gate {
	set := []*gates.Gate{nil, gates.X, gates.Y, gates.Z}
	var out [][2]*gates.Gate
	for _, a := range set {
		for _, b := range set {
			if a == nil && b == nil {
				continue
			}
			out = append(out, [2]*gates.Gate{a, b})
		}
	}
	return out
}()

// Add rewrites the circuit with injected errors and forwards it. For each
// original time slot the layer may emit a pre-slot (X errors preceding
// measurements) and a post-slot (gate and idle errors); the original slot
// itself passes through unmodified, so upper-layer accounting of real
// operations is unaffected.
func (e *ErrorLayer) Add(c *circuit.Circuit) error {
	if e.bypass || (e.P <= 0 && e.Model.PMeas <= 0) {
		return e.Next.Add(c)
	}
	n := e.Next.NumQubits()
	if cap(e.busy) < n {
		e.busy = make([]bool, n)
	}
	for len(e.operand) < n {
		e.operand = append(e.operand, len(e.operand))
	}
	busy := e.busy[:n]
	out := e.pool.Get()
	for _, slot := range c.Slots {
		pre, post := e.pre[:0], e.post[:0]
		for _, op := range slot.Ops {
			for _, q := range op.Qubits {
				if uint(q) < uint(n) {
					busy[q] = true
				}
			}
			switch {
			case op.Gate.Class == gates.ClassMeasure:
				e.Stats.OpsSeen++
				if e.rng.Float64() < e.Model.PMeas {
					pre = append(pre, e.errOp(gates.X, op.Qubits[0]))
					e.Stats.MeasurementErrors++
				}
			case op.Gate.Arity == 2 && e.Model.CorrelatedTwoQubit:
				e.Stats.OpsSeen++
				if e.rng.Float64() < e.P {
					pair := twoQubitErrorTable[e.rng.Intn(len(twoQubitErrorTable))]
					for i, g := range pair {
						if g != nil {
							post = append(post, e.errOp(g, op.Qubits[i]))
						}
					}
					e.Stats.TwoQubitErrors++
				}
			default:
				// Reset and gates (per operand for uncorrelated models)
				// take the single-qubit channel.
				for _, q := range op.Qubits {
					e.Stats.OpsSeen++
					if g := e.Model.draw(e.rng); g != nil {
						post = append(post, e.errOp(g, q))
						if op.Gate.Arity == 2 {
							e.Stats.TwoQubitErrors++
						} else {
							e.Stats.SingleQubitErrors++
						}
					}
				}
			}
		}
		// Idling qubits execute an identity and take the same channel.
		for q := 0; q < n; q++ {
			if busy[q] {
				busy[q] = false
				continue
			}
			e.Stats.OpsSeen++
			if g := e.Model.draw(e.rng); g != nil {
				post = append(post, e.errOp(g, q))
				e.Stats.IdleErrors++
			}
		}
		e.pre, e.post = pre, post
		if len(pre) > 0 {
			out.AddParallel(pre...)
		}
		out.AddParallel(slot.Ops...)
		if len(post) > 0 {
			out.AddParallel(post...)
		}
	}
	return e.Next.Add(out)
}

// errOp builds the error g on qubit q over the shared operand table. A
// qubit outside the table is outside the stack too: it gets a qubit
// slice of its own, and the next layer's validation rejects the
// circuit.
func (e *ErrorLayer) errOp(g *gates.Gate, q int) circuit.Operation {
	if uint(q) >= uint(len(e.operand)) {
		return circuit.NewOp(g, q)
	}
	return circuit.Operation{Gate: g, Qubits: e.operand[q : q+1 : q+1]}
}

// CounterStats holds what one counter layer observed in the downward
// circuit stream.
type CounterStats struct {
	// Circuits counts Add calls.
	Circuits int
	// Slots counts time slots.
	Slots int
	// Ops counts operations of all kinds.
	Ops int
	// ByClass counts operations per class, indexed by gates.Class.
	ByClass [gates.ClassMeasure + 1]int
}

// CounterLayer is the diagnostic layer of thesis §4.2.3: it counts the
// operations and time slots flowing between two layers without modifying
// the stream. Bypass-mode circuits are not counted.
type CounterLayer struct {
	qpdo.Forwarder
	// Stats accumulates the observations.
	Stats  CounterStats
	bypass bool
}

// NewCounterLayer stacks a counter above next.
func NewCounterLayer(next qpdo.Core) *CounterLayer {
	return &CounterLayer{Forwarder: qpdo.Forwarder{Next: next}}
}

// SetBypass pauses counting and forwards the toggle.
func (l *CounterLayer) SetBypass(on bool) {
	l.bypass = on
	l.Next.SetBypass(on)
}

// Add counts the circuit and forwards it untouched.
func (l *CounterLayer) Add(c *circuit.Circuit) error {
	if !l.bypass {
		l.Stats.Circuits++
		l.Stats.Slots += c.NumSlots()
		for _, slot := range c.Slots {
			for _, op := range slot.Ops {
				l.Stats.Ops++
				l.Stats.ByClass[op.Gate.Class]++
			}
		}
	}
	return l.Next.Add(c)
}

// ResetStats clears the counters.
func (l *CounterLayer) ResetStats() {
	l.Stats = CounterStats{}
}
