// Package qpdo implements the layered control-stack framework of the
// thesis' Quantum Platform Development framewOrk (Chapter 4): a shared
// Core interface (Table 4.1) implemented by simulation cores at the bottom
// of a stack and by transparent layers above them. Layers are stacked in a
// flexible way — Pauli frame layers, error layers and counter layers can
// be inserted anywhere — and every layer processes the stream of circuits
// and the stream of measurement results flowing back up.
package qpdo

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
)

// BinaryState is the classically-known state of a qubit (thesis §4.2.2):
// 0 after reset or a 0 measurement, 1 after a 1 measurement, and x
// (unknown) after any gate.
type BinaryState uint8

// Binary state values.
const (
	StateZero BinaryState = iota
	StateOne
	StateUnknown
)

// String renders 0, 1 or x.
func (b BinaryState) String() string {
	switch b {
	case StateZero:
		return "0"
	case StateOne:
		return "1"
	default:
		return "x"
	}
}

// State is the binary-state view of every qubit in a stack.
type State struct {
	Values []BinaryState
}

// Measurement is one measurement outcome produced by Execute, reported in
// execution order (circuit order, slot order, operation order).
type Measurement struct {
	Qubit int
	Value int
}

// Result carries the outcomes of all measurement operations executed by
// one Execute call.
type Result struct {
	Measurements []Measurement
}

// ValuesFor returns the measurement outcomes of one qubit in order.
func (r *Result) ValuesFor(q int) []int {
	var out []int
	for _, m := range r.Measurements {
		if m.Qubit == q {
			out = append(out, m.Value)
		}
	}
	return out
}

// Last returns the final measurement of qubit q, or -1 when absent.
func (r *Result) Last(q int) int {
	v := -1
	for _, m := range r.Measurements {
		if m.Qubit == q {
			v = m.Value
		}
	}
	return v
}

// QuantumState is the full quantum state exposed by simulation cores that
// support it (thesis getquantumstate()); the concrete type depends on the
// back-end (amplitudes for the state-vector core, stabilizers for the
// CHP core).
type QuantumState interface {
	// Describe renders the state for logs and listings.
	Describe() string
}

// ErrUnsupported is returned by cores that cannot produce the requested
// view of the state.
var ErrUnsupported = errors.New("qpdo: operation not supported by this core")

// Core is the shared interface between all layers of a control stack
// (thesis Table 4.1). The bottom layer of every stack is a simulation
// core; every other layer wraps a next Core and is free to rewrite the
// circuit stream on the way down and the measurement stream on the way
// up.
//
// Circuits passed to Add follow one ownership rule, which lets callers
// replay memoized circuits and lets rewriting layers build their output
// in pooled storage:
//
//   - a circuit passed to Add is read-only to the callee, down to its
//     operations' qubit slices;
//   - the callee must not keep the circuit, or anything it references,
//     past the Execute that consumes it.
//
// A layer that rewrites circuits may therefore reuse its output
// circuits once its call to the next layer's Execute has returned.
type Core interface {
	// CreateQubits allocates n new qubits initialized to |0⟩.
	CreateQubits(n int) error
	// RemoveQubits removes the m highest-numbered qubits. Cores reject
	// the removal when those qubits are not disentangled |0⟩ states.
	RemoveQubits(m int) error
	// NumQubits returns the number of allocated qubits.
	NumQubits() int
	// Add queues a circuit for execution. The circuit is read-only to
	// the callee and must not be kept past the Execute that consumes
	// it (see the ownership rule above).
	Add(c *circuit.Circuit) error
	// Execute runs all queued circuits and returns the measurement
	// results in execution order.
	Execute() (*Result, error)
	// GetState returns the binary-state view of all qubits.
	GetState() (*State, error)
	// GetQuantumState returns the full quantum state when the back-end
	// supports it, ErrUnsupported otherwise.
	GetQuantumState() (QuantumState, error)
	// SetBypass toggles diagnostic bypass mode (thesis §5.3.1): service
	// layers such as error injection and counters pass circuits through
	// untouched while bypass is on. Layers forward the toggle downward.
	SetBypass(on bool)
}

// Forwarder is the embeddable base for transparent layers: every method
// delegates to the next Core. Concrete layers override what they need.
type Forwarder struct {
	Next Core
}

// CreateQubits forwards to the next layer.
func (f *Forwarder) CreateQubits(n int) error { return f.Next.CreateQubits(n) }

// RemoveQubits forwards to the next layer.
func (f *Forwarder) RemoveQubits(m int) error { return f.Next.RemoveQubits(m) }

// NumQubits forwards to the next layer.
func (f *Forwarder) NumQubits() int { return f.Next.NumQubits() }

// Add forwards to the next layer.
func (f *Forwarder) Add(c *circuit.Circuit) error { return f.Next.Add(c) }

// Execute forwards to the next layer.
func (f *Forwarder) Execute() (*Result, error) { return f.Next.Execute() }

// GetState forwards to the next layer.
func (f *Forwarder) GetState() (*State, error) { return f.Next.GetState() }

// GetQuantumState forwards to the next layer.
func (f *Forwarder) GetQuantumState() (QuantumState, error) { return f.Next.GetQuantumState() }

// SetBypass forwards to the next layer.
func (f *Forwarder) SetBypass(on bool) { f.Next.SetBypass(on) }

// Run is a convenience helper: queue one circuit and execute it.
func Run(c Core, circ *circuit.Circuit) (*Result, error) {
	if err := c.Add(circ); err != nil {
		return nil, err
	}
	return c.Execute()
}

// WithBypass runs fn with bypass mode enabled, restoring normal mode
// afterwards; used for the diagnostic circuits of the LER experiments.
func WithBypass(c Core, fn func() error) error {
	c.SetBypass(true)
	defer c.SetBypass(false)
	return fn()
}

// Validate checks a circuit against the stack before queueing; shared by
// core implementations.
func Validate(c *circuit.Circuit, numQubits int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if mq := c.MaxQubit(); mq >= numQubits {
		return fmt.Errorf("qpdo: circuit references qubit %d but stack has %d qubits", mq, numQubits)
	}
	return nil
}
