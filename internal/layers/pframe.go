package layers

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gates"
	"repro/internal/pauli"
	"repro/internal/qpdo"
)

// PauliFrameLayer wraps a Pauli Frame Unit as a transparent QPDO layer
// (thesis §5.2.1): on the way down it absorbs Pauli gates, maps records
// through Clifford gates and flushes records ahead of non-Clifford gates;
// on the way up it inverts measurement results whose qubit record holds
// an X component. The layer sits above the error layer in the thesis
// stacks (Fig 5.8), so physical errors injected below are invisible to
// the frame while corrections arriving from above are absorbed.
type PauliFrameLayer struct {
	qpdo.Forwarder
	// PFU is the Pauli frame unit doing the work; exposed for
	// inspection by tests and experiments.
	PFU *core.PFU

	// pendingFlips queues, in stream order, whether each forwarded
	// measurement must be inverted on the way back up.
	pendingFlips []measFlip
	// SlotsSaved counts input time slots that vanished because every
	// operation in them was absorbed (thesis Fig 5.26).
	SlotsSaved int

	// pool holds the rewritten circuits handed to the next layer; it is
	// recycled once the Execute that consumed them has returned.
	pool circuit.Pool
	// fwd, flush and main are reusable per-slot scratch: the arbiter's
	// output for one operation and the flush and main slots it feeds.
	fwd, flush, main []circuit.Operation
	// saved is the scratch snapshot that makes Add atomic.
	saved pfSnapshot
}

type measFlip struct {
	qubit int
	flip  bool
}

// pfSnapshot is the layer state an Add may change before it fails.
type pfSnapshot struct {
	recs       []pauli.Record
	stats      core.Stats
	slotsSaved int
	flips      int
}

// NewPauliFrameLayer stacks a Pauli frame above next, sized to the
// current qubit count (it grows with CreateQubits).
func NewPauliFrameLayer(next qpdo.Core) *PauliFrameLayer {
	return &PauliFrameLayer{
		Forwarder: qpdo.Forwarder{Next: next},
		PFU:       core.NewPFU(next.NumQubits()),
	}
}

// Reset clears every Pauli record, the pending measurement flips, the
// arbiter statistics and the slot-saving counter, restoring the layer to
// its freshly built state (stack reuse across Monte-Carlo samples). It
// recycles the circuits the layer handed down, so nothing may be left
// queued below it.
func (l *PauliFrameLayer) Reset() {
	l.PFU.Frame.Clear()
	l.PFU.Stats = core.Stats{}
	l.pendingFlips = l.pendingFlips[:0]
	l.SlotsSaved = 0
	l.pool.Recycle()
}

// CreateQubits grows the frame alongside the stack.
func (l *PauliFrameLayer) CreateQubits(n int) error {
	if err := l.Next.CreateQubits(n); err != nil {
		return err
	}
	l.PFU.Frame.Grow(n)
	return nil
}

// RemoveQubits shrinks the frame alongside the stack.
func (l *PauliFrameLayer) RemoveQubits(m int) error {
	if err := l.Next.RemoveQubits(m); err != nil {
		return err
	}
	return l.PFU.Frame.Shrink(m)
}

// Add transforms the circuit through the Pauli arbiter and forwards the
// result. Time slots whose operations were all absorbed are dropped;
// flush gates for non-Clifford operations are emitted in a dedicated
// slot preceding the slot of the gate itself. Add is atomic: when the
// arbiter or the next layer rejects the circuit, the records, the
// pending measurement flips, the statistics and SlotsSaved are restored
// to what they were before the call.
func (l *PauliFrameLayer) Add(c *circuit.Circuit) error {
	if err := qpdo.Validate(c, l.PFU.Frame.Size()); err != nil {
		return err
	}
	l.save()
	var out *circuit.Circuit
	for _, slot := range c.Slots {
		flush, main := l.flush[:0], l.main[:0]
		for _, op := range slot.Ops {
			if op.Gate.Class == gates.ClassMeasure {
				// Capture the flip decision at this point in the stream.
				l.pendingFlips = append(l.pendingFlips, measFlip{
					qubit: op.Qubits[0],
					flip:  l.PFU.Frame.FlipsMeasurement(op.Qubits[0]),
				})
			}
			fwd, err := l.PFU.Process(l.fwd[:0], op)
			if err != nil {
				l.restore()
				return err
			}
			l.fwd = fwd
			if len(fwd) > 1 {
				flush = append(flush, fwd[:len(fwd)-1]...)
				main = append(main, fwd[len(fwd)-1])
			} else {
				main = append(main, fwd...)
			}
		}
		l.flush, l.main = flush, main
		if len(flush) == 0 && len(main) == 0 {
			l.SlotsSaved++
			continue
		}
		if out == nil {
			out = l.pool.Get()
		}
		if len(flush) > 0 {
			out.AddParallel(flush...)
		}
		if len(main) > 0 {
			out.AddParallel(main...)
		}
	}
	if out == nil {
		// Nothing physical to do; the whole circuit was absorbed.
		return nil
	}
	if err := l.Next.Add(out); err != nil {
		l.restore()
		return err
	}
	return nil
}

// save snapshots the state Add changes into reusable scratch.
func (l *PauliFrameLayer) save() {
	l.saved.recs = l.PFU.Frame.AppendRecords(l.saved.recs[:0])
	l.saved.stats = l.PFU.Stats
	l.saved.slotsSaved = l.SlotsSaved
	l.saved.flips = len(l.pendingFlips)
}

// restore undoes a failed Add from the snapshot taken by save.
func (l *PauliFrameLayer) restore() {
	l.PFU.Frame.RestoreRecords(l.saved.recs)
	l.PFU.Stats = l.saved.stats
	l.SlotsSaved = l.saved.slotsSaved
	l.pendingFlips = l.pendingFlips[:l.saved.flips]
}

// Execute runs the forwarded stream and maps the measurement results
// through the frame in order. Whatever the outcome, the next layer's
// queue is spent, so the pending flips are dropped and the pooled
// circuits recycled.
func (l *PauliFrameLayer) Execute() (*qpdo.Result, error) {
	res, err := l.Next.Execute()
	l.pool.Recycle()
	flips := l.pendingFlips
	l.pendingFlips = l.pendingFlips[:0]
	if err != nil {
		return nil, err
	}
	if len(res.Measurements) != len(flips) {
		return nil, fmt.Errorf("layers: pauli frame saw %d pending measurements but %d results arrived",
			len(flips), len(res.Measurements))
	}
	for i := range res.Measurements {
		pf := flips[i]
		m := &res.Measurements[i]
		if m.Qubit != pf.qubit {
			return nil, fmt.Errorf("layers: measurement order mismatch: result %d is qubit %d, frame expected qubit %d",
				i, m.Qubit, pf.qubit)
		}
		if pf.flip {
			m.Value = 1 - m.Value
			l.PFU.Stats.MeasurementsFlipped++
		}
	}
	return res, nil
}

// GetState maps the binary-state view through the frame: a qubit whose
// record holds an X component has its known 0/1 value inverted.
func (l *PauliFrameLayer) GetState() (*qpdo.State, error) {
	st, err := l.Next.GetState()
	if err != nil {
		return nil, err
	}
	for q := range st.Values {
		if q < l.PFU.Frame.Size() && l.PFU.Frame.FlipsMeasurement(q) {
			switch st.Values[q] {
			case qpdo.StateZero:
				st.Values[q] = qpdo.StateOne
			case qpdo.StateOne:
				st.Values[q] = qpdo.StateZero
			}
		}
	}
	return st, nil
}

// Flush emits all pending records as physical Pauli gates to the lower
// layers and executes them, restoring the physical state to what it
// would have been without a Pauli frame (thesis §5.2.2). Call before
// comparing full quantum states.
func (l *PauliFrameLayer) Flush() error {
	if len(l.pendingFlips) > 0 {
		return fmt.Errorf("layers: Flush with %d unexecuted measurements queued; call Execute first", len(l.pendingFlips))
	}
	c := l.PFU.FlushAll()
	if c.NumSlots() == 0 {
		return nil
	}
	if err := l.Next.Add(c); err != nil {
		return err
	}
	_, err := l.Next.Execute()
	l.pool.Recycle()
	return err
}
