// Package layers provides the concrete QPDO layers of the thesis
// (§4.2.3): the QxCore and ChpCore simulation cores, the Pauli frame
// layer built on the Pauli Frame Unit, the symmetric-depolarizing error
// layer, and the diagnostic counter layer. Layers all implement the
// shared qpdo.Core interface and can be stacked in any order.
package layers

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/chp"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/pauli"
	"repro/internal/qpdo"
	"repro/internal/statevec"
)

// VectorState is the quantum-state view exposed by the QxCore: the full
// amplitude vector.
type VectorState struct {
	State *statevec.State
}

// Describe renders the nonzero support in the thesis listing style.
func (v *VectorState) Describe() string { return v.State.SupportString(1e-9) }

// StabilizerState is the quantum-state view exposed by the ChpCore: the
// stabilizer generators of the current state.
type StabilizerState struct {
	Stabilizers []pauli.PauliString
}

// Describe renders one stabilizer per line.
func (s *StabilizerState) Describe() string {
	var b strings.Builder
	for _, st := range s.Stabilizers {
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// QxCore is the universal simulation core backed by the state-vector
// simulator, the stand-in for the QX Simulator back-end (thesis §4.1.1).
type QxCore struct {
	rng     *rand.Rand
	state   *statevec.State
	binary  []qpdo.BinaryState
	queue   []*circuit.Circuit
	workers int // 0 = leave the state-vector default (serial)
}

// NewQxCore creates an empty universal core.
func NewQxCore(rng *rand.Rand) *QxCore { return &QxCore{rng: rng} }

// SetWorkers shards every state-vector kernel invocation over w
// goroutines (w <= 0 selects GOMAXPROCS); results are bit-identical for
// any value. The setting survives CreateQubits/RemoveQubits.
func (c *QxCore) SetWorkers(w int) {
	if w == 0 {
		w = -1 // remember "all CPUs" distinctly from the unset zero value
	}
	c.workers = w
	if c.state != nil {
		c.state.SetWorkers(w)
	}
}

// CreateQubits allocates n new qubits in |0⟩.
func (c *QxCore) CreateQubits(n int) error {
	if n <= 0 {
		return fmt.Errorf("layers: cannot create %d qubits", n)
	}
	total := len(c.binary) + n
	amps := make([]complex128, 1<<uint(total))
	if c.state != nil {
		// Embed the old state into the larger register (new qubits |0⟩).
		copy(amps, c.state.Amplitudes())
	} else {
		amps[0] = 1
	}
	c.state = statevec.FromAmplitudes(amps, c.rng)
	if c.workers != 0 {
		c.state.SetWorkers(c.workers)
	}
	c.binary = append(c.binary, make([]qpdo.BinaryState, n)...)
	return nil
}

// RemoveQubits removes the m highest-numbered qubits; they must be in
// unentangled |0⟩ states.
func (c *QxCore) RemoveQubits(m int) error {
	n := len(c.binary)
	if m <= 0 || m > n {
		return fmt.Errorf("layers: cannot remove %d of %d qubits", m, n)
	}
	keep := make([]int, n-m)
	for i := range keep {
		keep[i] = i
	}
	for q := n - m; q < n; q++ {
		if p := c.state.ProbOne(q); p > 1e-9 {
			return fmt.Errorf("layers: qubit %d is not |0⟩ (P(1)=%g)", q, p)
		}
	}
	sub, err := c.state.ExtractSubsystem(keep)
	if err != nil {
		return fmt.Errorf("layers: removal: %w", err)
	}
	c.state = sub
	c.binary = c.binary[:n-m]
	return nil
}

// NumQubits returns the allocated qubit count.
func (c *QxCore) NumQubits() int { return len(c.binary) }

// Add queues a circuit.
func (c *QxCore) Add(circ *circuit.Circuit) error {
	if err := qpdo.Validate(circ, len(c.binary)); err != nil {
		return err
	}
	c.queue = append(c.queue, circ)
	return nil
}

// Execute runs every queued circuit in order.
func (c *QxCore) Execute() (*qpdo.Result, error) {
	res := &qpdo.Result{}
	for _, circ := range c.queue {
		for _, slot := range circ.Slots {
			for _, op := range slot.Ops {
				switch op.Gate.Class {
				case gates.ClassReset:
					c.state.Reset(op.Qubits[0])
					c.binary[op.Qubits[0]] = qpdo.StateZero
				case gates.ClassMeasure:
					v := c.state.Measure(op.Qubits[0])
					c.binary[op.Qubits[0]] = qpdo.BinaryState(v)
					res.Measurements = append(res.Measurements,
						qpdo.Measurement{Qubit: op.Qubits[0], Value: v})
				case gates.ClassPauli, gates.ClassClifford, gates.ClassNonClifford:
					if op.Gate.Name != gates.GateI {
						c.state.ApplyGate(op.Gate, op.Qubits...)
					}
					for _, q := range op.Qubits {
						c.binary[q] = qpdo.StateUnknown
					}
				}
			}
		}
	}
	c.queue = c.queue[:0]
	return res, nil
}

// GetState returns the binary-state view.
func (c *QxCore) GetState() (*qpdo.State, error) {
	return &qpdo.State{Values: append([]qpdo.BinaryState(nil), c.binary...)}, nil
}

// GetQuantumState returns the amplitude view.
func (c *QxCore) GetQuantumState() (qpdo.QuantumState, error) {
	if c.state == nil {
		return nil, fmt.Errorf("layers: no qubits allocated")
	}
	return &VectorState{State: c.state.Clone()}, nil
}

// SetBypass is a no-op for cores: bypass concerns service layers only.
func (c *QxCore) SetBypass(bool) {}

// Vector returns the live underlying state for white-box tests.
func (c *QxCore) Vector() *statevec.State { return c.state }

// ChpCore is the stabilizer simulation core backed by the tableau
// simulator, the stand-in for the CHP back-end (thesis §4.1.2). Only
// Clifford-group circuits are supported.
type ChpCore struct {
	rng     *rand.Rand
	tab     *chp.Tableau
	binary  []qpdo.BinaryState
	queue   []*circuit.Circuit
	meas    int // measurement operations in the queue
	removed int // logically removed trailing qubits (still in the tableau)
}

// NewChpCore creates an empty stabilizer core.
func NewChpCore(rng *rand.Rand) *ChpCore { return &ChpCore{rng: rng} }

// CreateQubits allocates n new qubits in |0⟩.
func (c *ChpCore) CreateQubits(n int) error {
	if n <= 0 {
		return fmt.Errorf("layers: cannot create %d qubits", n)
	}
	if c.removed > 0 {
		// Reclaim logically removed qubits first; they are verified |0⟩.
		reuse := n
		if reuse > c.removed {
			reuse = c.removed
		}
		c.removed -= reuse
		c.binary = append(c.binary, make([]qpdo.BinaryState, reuse)...)
		n -= reuse
		if n == 0 {
			return nil
		}
	}
	// Growing the tableau re-allocates it, which is only safe while every
	// existing qubit is still a pristine |0⟩ (binary state zero implies no
	// gate has acted since the last reset or 0-measurement).
	if c.tab != nil {
		for q, b := range c.binary {
			if b != qpdo.StateZero {
				return fmt.Errorf("layers: ChpCore can only grow while all qubits are |0⟩ (qubit %d is %s)", q, b)
			}
		}
	}
	total := len(c.binary) + n
	c.tab = chp.New(total, c.rng)
	c.binary = append(c.binary, make([]qpdo.BinaryState, n)...)
	return nil
}

// RemoveQubits logically removes the m highest-numbered qubits after
// verifying they are deterministic |0⟩ states. The tableau keeps the
// columns (they are exactly |0⟩ and cannot influence the rest), but the
// qubits become unaddressable until re-created.
func (c *ChpCore) RemoveQubits(m int) error {
	n := len(c.binary)
	if m <= 0 || m > n {
		return fmt.Errorf("layers: cannot remove %d of %d qubits", m, n)
	}
	for q := n - m; q < n; q++ {
		v, det := c.tab.ExpectPauli(pauli.ZString(q))
		if !det || v != 1 {
			return fmt.Errorf("layers: qubit %d is not a deterministic |0⟩", q)
		}
	}
	c.binary = c.binary[:n-m]
	c.removed += m
	return nil
}

// NumQubits returns the addressable qubit count.
func (c *ChpCore) NumQubits() int { return len(c.binary) }

// Add queues a circuit, rejecting non-Clifford gates up front.
func (c *ChpCore) Add(circ *circuit.Circuit) error {
	if err := qpdo.Validate(circ, len(c.binary)); err != nil {
		return err
	}
	meas := 0
	for _, slot := range circ.Slots {
		for _, op := range slot.Ops {
			if op.Gate.Class == gates.ClassNonClifford {
				return fmt.Errorf("layers: ChpCore cannot simulate non-Clifford gate %s", op.Gate)
			}
			if op.Gate.Class == gates.ClassMeasure {
				meas++
			}
		}
	}
	c.queue = append(c.queue, circ)
	c.meas += meas
	return nil
}

// Execute runs every queued circuit in order. Its result slice is sized
// from the queued measurements, so a call costs two allocations at most.
func (c *ChpCore) Execute() (*qpdo.Result, error) {
	res := &qpdo.Result{Measurements: make([]qpdo.Measurement, 0, c.meas)}
	defer c.clearQueue()
	for _, circ := range c.queue {
		for _, slot := range circ.Slots {
			for _, op := range slot.Ops {
				if err := c.applyOp(op, res); err != nil {
					return nil, err
				}
			}
		}
	}
	return res, nil
}

func (c *ChpCore) clearQueue() {
	c.queue = c.queue[:0]
	c.meas = 0
}

func (c *ChpCore) applyOp(op circuit.Operation, res *qpdo.Result) error {
	q := op.Qubits[0]
	switch op.Gate.Name {
	case gates.PrepZ:
		c.tab.Reset(q)
		c.binary[q] = qpdo.StateZero
		return nil
	case gates.MeasZ:
		v, _ := c.tab.Measure(q)
		c.binary[q] = qpdo.BinaryState(v)
		res.Measurements = append(res.Measurements, qpdo.Measurement{Qubit: q, Value: v})
		return nil
	case gates.GateI:
	case gates.GateX:
		c.tab.X(q)
	case gates.GateY:
		c.tab.Y(q)
	case gates.GateZ:
		c.tab.Z(q)
	case gates.GateH:
		c.tab.H(q)
	case gates.GateS:
		c.tab.S(q)
	case gates.GateSdg:
		c.tab.Sdg(q)
	case gates.GateCNOT:
		c.tab.CNOT(q, op.Qubits[1])
	case gates.GateCZ:
		c.tab.CZ(q, op.Qubits[1])
	case gates.GateSWAP:
		c.tab.SWAP(q, op.Qubits[1])
	default:
		return fmt.Errorf("layers: ChpCore cannot apply gate %s", op.Gate)
	}
	for _, qq := range op.Qubits {
		if op.Gate.Name != gates.GateI {
			c.binary[qq] = qpdo.StateUnknown
		}
	}
	return nil
}

// GetState returns the binary-state view.
func (c *ChpCore) GetState() (*qpdo.State, error) {
	return &qpdo.State{Values: append([]qpdo.BinaryState(nil), c.binary...)}, nil
}

// GetQuantumState returns the stabilizer view.
func (c *ChpCore) GetQuantumState() (qpdo.QuantumState, error) {
	if c.tab == nil {
		return nil, fmt.Errorf("layers: no qubits allocated")
	}
	return &StabilizerState{Stabilizers: c.tab.Stabilizers()}, nil
}

// SetBypass is a no-op for cores.
func (c *ChpCore) SetBypass(bool) {}

// Tableau returns the live underlying tableau for white-box tests and
// fast stabilizer queries by the experiment harness.
func (c *ChpCore) Tableau() *chp.Tableau { return c.tab }

// Reset restores every addressable qubit to a pristine |0⟩ and replaces
// the measurement RNG, reusing the tableau allocation. Together with the
// other layers' Reset/Reconfigure methods this lets a Monte-Carlo worker
// recycle one stack across samples with results bit-identical to a
// freshly built stack.
func (c *ChpCore) Reset(rng *rand.Rand) {
	c.rng = rng
	if c.tab != nil {
		c.tab.Reinit(rng)
	}
	for q := range c.binary {
		c.binary[q] = qpdo.StateZero
	}
	c.clearQueue()
}
