// Package arch is a functional model of the heterogeneous quantum
// computer architecture of thesis §3.5 (Figs 3.10–3.12): a Quantum
// Control Unit (QCU) that decodes QISA instructions, translates
// compiler-issued virtual qubit addresses through the Q symbol table,
// routes operations through the Pauli arbiter and Pauli Frame Unit,
// generates Error Syndrome Measurement cycles for a Surface Code 17
// qubit plane, decodes syndromes in the Quantum Error Detection unit,
// and drives a mock Physical Execution Layer (PEL) that "emits
// waveforms" onto a simulated quantum chip.
package arch

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/gates"
	"repro/internal/qpdo"
	"repro/internal/surface"
)

// Opcode enumerates the QISA instruction categories the execution
// controller decodes (thesis §3.5.1).
type Opcode int

// QISA opcodes.
const (
	// OpGate applies a physical gate to virtual qubit operands.
	OpGate Opcode = iota
	// OpReset initializes a virtual qubit to |0⟩.
	OpReset
	// OpMeasure measures a virtual qubit in the computational basis.
	OpMeasure
	// OpQECSlot asks the QEC cycle generator to insert one ESM round
	// for the qubit plane.
	OpQECSlot
	// OpMapQubit updates the Q symbol table (virtual → physical).
	OpMapQubit
	// OpDealloc marks a virtual qubit dead in the symbol table.
	OpDealloc
	// OpLogicalMeasure asks the Logic Measurement Unit to measure the
	// SC17 plane's logical qubit: transversal data measurement combined
	// into one parity result (thesis §3.5.1).
	OpLogicalMeasure
)

// Instruction is one QISA instruction.
type Instruction struct {
	Op   Opcode
	Gate *gates.Gate
	// Operands are virtual qubit addresses (compiler view).
	Operands []int
	// Virtual/Physical parameterize OpMapQubit.
	Virtual, Physical int
}

// Gate builds a gate instruction.
func Gate(g *gates.Gate, operands ...int) Instruction {
	return Instruction{Op: OpGate, Gate: g, Operands: operands}
}

// Reset builds a reset instruction.
func Reset(v int) Instruction { return Instruction{Op: OpReset, Operands: []int{v}} }

// Measure builds a measurement instruction.
func Measure(v int) Instruction { return Instruction{Op: OpMeasure, Operands: []int{v}} }

// QECSlot builds a QEC-slot instruction.
func QECSlot() Instruction { return Instruction{Op: OpQECSlot} }

// MapQubit builds a symbol-table update.
func MapQubit(virtual, physical int) Instruction {
	return Instruction{Op: OpMapQubit, Virtual: virtual, Physical: physical}
}

// Dealloc builds a deallocation instruction.
func Dealloc(v int) Instruction { return Instruction{Op: OpDealloc, Operands: []int{v}} }

// LogicalMeasure builds a logical-measurement instruction for the plane.
func LogicalMeasure() Instruction { return Instruction{Op: OpLogicalMeasure} }

// SymbolTable is the Q symbol table: the run-time mapping from
// compiler-issued virtual qubit addresses to physical qubits, with
// liveness tracking (thesis §3.5.1).
type SymbolTable struct {
	phys  map[int]int
	alive map[int]bool
}

// NewSymbolTable starts with the identity mapping for n qubits.
func NewSymbolTable(n int) *SymbolTable {
	t := &SymbolTable{phys: map[int]int{}, alive: map[int]bool{}}
	for i := 0; i < n; i++ {
		t.phys[i] = i
		t.alive[i] = true
	}
	return t
}

// Translate resolves a virtual address.
func (t *SymbolTable) Translate(v int) (int, error) {
	if !t.alive[v] {
		return 0, fmt.Errorf("arch: virtual qubit %d is not alive", v)
	}
	return t.phys[v], nil
}

// Set maps a virtual address to a physical qubit and marks it alive.
func (t *SymbolTable) Set(virtual, physical int) {
	t.phys[virtual] = physical
	t.alive[virtual] = true
}

// Dealloc marks a virtual qubit dead.
func (t *SymbolTable) Dealloc(v int) { t.alive[v] = false }

// TraceEntry records one operation the PEL converted to waveforms.
type TraceEntry struct {
	Gate   gates.Name
	Qubits []int
}

// PEL is the mock Physical Execution Layer: it records the operation
// stream (the "waveforms" routed through the Quantum-Classical
// Interface) and applies it to the simulated quantum chip.
type PEL struct {
	chip  qpdo.Core
	Trace []TraceEntry
}

// NewPEL wraps a simulated chip.
func NewPEL(chip qpdo.Core) *PEL { return &PEL{chip: chip} }

// Apply executes one physical operation and returns the measurement
// result when the operation is a measurement (else -1).
func (p *PEL) Apply(op circuit.Operation) (int, error) {
	p.Trace = append(p.Trace, TraceEntry{Gate: op.Gate.Name, Qubits: append([]int(nil), op.Qubits...)})
	c := circuit.New()
	c.AddParallel(op)
	if err := p.chip.Add(c); err != nil {
		return -1, err
	}
	res, err := p.chip.Execute()
	if err != nil {
		return -1, err
	}
	if op.Gate.Class == gates.ClassMeasure {
		if len(res.Measurements) == 0 {
			return -1, fmt.Errorf("arch: measurement produced no result")
		}
		return res.Measurements[len(res.Measurements)-1].Value, nil
	}
	return -1, nil
}

// Report summarizes one program execution.
type Report struct {
	// Measurements are the architecture-visible (frame-corrected)
	// measurement results in program order.
	Measurements []int
	// Corrections counts Pauli corrections the QED unit issued (all of
	// which the PFU absorbed).
	Corrections int
	// ESMRounds counts QEC cycles generated.
	ESMRounds int
}

// QCU is the quantum control unit (thesis Fig 3.10): execution
// controller + address translation + Pauli arbiter/PFU + QEC cycle
// generator + QED unit + logic measurement unit, driving a PEL.
type QCU struct {
	symtab *SymbolTable
	pfu    *core.PFU
	pel    *PEL

	// QEC machinery for one SC17 plane on physical qubits 0..16.
	star       *surface.Star
	decA, decB *decoder.WindowDecoder
	rounds     []surface.SyndromeRound

	// cycles, when non-nil, accumulates execution time under a cycle
	// model (the first step toward the thesis' clock-cycle-accurate
	// emulation goal, Chapter 6).
	cycles *CycleCounter

	// fwd is the arbiter's reusable output buffer.
	fwd []circuit.Operation
}

// NewQCU builds a control unit for a chip exposing at least
// surface.NumQubits physical qubits.
func NewQCU(chip qpdo.Core) (*QCU, error) {
	if chip.NumQubits() < surface.NumQubits {
		return nil, fmt.Errorf("arch: chip has %d qubits, the SC17 plane needs %d",
			chip.NumQubits(), surface.NumQubits)
	}
	star := &surface.Star{Mode: surface.AncillaDedicated}
	for i := 0; i < surface.NumData; i++ {
		star.Data[i] = i
	}
	for i := 0; i < surface.NumAncilla; i++ {
		star.Anc[i] = surface.NumData + i
	}
	return &QCU{
		symtab: NewSymbolTable(chip.NumQubits()),
		pfu:    core.NewPFU(chip.NumQubits()),
		pel:    NewPEL(chip),
		star:   star,
		decA:   decoder.NewWindowDecoder(decoder.BuildLUT(surface.XSupports(surface.RotNormal), surface.NumData)),
		decB:   decoder.NewWindowDecoder(decoder.BuildLUT(surface.ZSupports(surface.RotNormal), surface.NumData)),
	}, nil
}

// SymbolTable exposes the Q symbol table.
func (q *QCU) SymbolTable() *SymbolTable { return q.symtab }

// PFU exposes the Pauli frame unit for inspection.
func (q *QCU) PFU() *core.PFU { return q.pfu }

// PEL exposes the physical execution layer trace.
func (q *QCU) PEL() *PEL { return q.pel }

// SetCycleModel enables cycle accounting for subsequent Execute calls.
func (q *QCU) SetCycleModel(m CycleModel) { q.cycles = &CycleCounter{Model: m} }

// Cycles returns the accumulated counter (nil when accounting is off).
func (q *QCU) Cycles() *CycleCounter { return q.cycles }

// Execute runs a QISA program (thesis §3.5.1: the execution controller
// decodes each instruction and dispatches it).
func (q *QCU) Execute(program []Instruction) (*Report, error) {
	rep := &Report{}
	for pc, ins := range program {
		if err := q.step(ins, rep); err != nil {
			return rep, fmt.Errorf("arch: pc %d: %w", pc, err)
		}
	}
	return rep, nil
}

func (q *QCU) step(ins Instruction, rep *Report) error {
	switch ins.Op {
	case OpMapQubit:
		q.symtab.Set(ins.Virtual, ins.Physical)
		return nil
	case OpDealloc:
		q.symtab.Dealloc(ins.Operands[0])
		return nil
	case OpQECSlot:
		return q.qecCycle(rep)
	case OpLogicalMeasure:
		return q.logicalMeasure(rep)
	case OpGate, OpReset, OpMeasure:
		phys := make([]int, len(ins.Operands))
		for i, v := range ins.Operands {
			p, err := q.symtab.Translate(v)
			if err != nil {
				return err
			}
			phys[i] = p
		}
		g := ins.Gate
		switch ins.Op {
		case OpReset:
			g = gates.Prep
		case OpMeasure:
			g = gates.Measure
		}
		if g == nil {
			return fmt.Errorf("gate instruction without gate")
		}
		return q.issue(circuit.NewOp(g, phys...), rep, true)
	}
	return fmt.Errorf("unknown opcode %d", ins.Op)
}

// issue routes one physical operation through the Pauli arbiter
// (thesis Fig 3.12) and the PEL.
func (q *QCU) issue(op circuit.Operation, rep *Report, report bool) error {
	fwd, err := q.pfu.Process(q.fwd[:0], op)
	if err != nil {
		return err
	}
	q.fwd = fwd
	for _, f := range fwd {
		if q.cycles != nil {
			q.cycles.AddOp(f.Gate.Class)
		}
		raw, err := q.pel.Apply(f)
		if err != nil {
			return err
		}
		if f.Gate.Class == gates.ClassMeasure {
			mapped := q.pfu.MapMeasurement(f.Qubits[0], raw)
			if report {
				rep.Measurements = append(rep.Measurements, mapped)
			}
		}
	}
	return nil
}

// logicalMeasure implements the Logic Measurement Unit (thesis §3.5.1):
// it waits for the transversal data measurements to arrive from the PEL
// (each frame-corrected by the PFU) and combines them into the logical
// parity result, which is reported in place of the raw outcomes.
func (q *QCU) logicalMeasure(rep *Report) error {
	parity := 0
	for _, d := range q.star.Data {
		scratch := &Report{}
		if err := q.issue(circuit.NewOp(gates.Measure, d), scratch, true); err != nil {
			return err
		}
		parity ^= scratch.Measurements[0]
	}
	rep.Measurements = append(rep.Measurements, parity)
	return nil
}

// qecCycle implements the QEC cycle generator + QED unit (thesis
// §3.5.1): emit one ESM round for the plane, collect the syndromes, and
// after every second round run the windowed decoder; the resulting
// correction Pauli gates are routed through the arbiter, where the PFU
// absorbs them.
func (q *QCU) qecCycle(rep *Report) error {
	esm := q.star.ESMCircuit()
	var outcomes []qpdo.Measurement
	esmCycles := 0
	for _, slot := range esm.Slots {
		if q.cycles != nil {
			classes := make([]gates.Class, len(slot.Ops))
			for i, op := range slot.Ops {
				classes[i] = op.Gate.Class
			}
			before := q.cycles.Total
			q.cycles.AddSlot(classes)
			esmCycles += q.cycles.Total - before
		}
		for _, op := range slot.Ops {
			fwd, err := q.pfu.Process(q.fwd[:0], op)
			if err != nil {
				return err
			}
			q.fwd = fwd
			for _, f := range fwd {
				raw, err := q.pel.Apply(f)
				if err != nil {
					return err
				}
				if f.Gate.Class == gates.ClassMeasure {
					mapped := q.pfu.MapMeasurement(f.Qubits[0], raw)
					outcomes = append(outcomes, qpdo.Measurement{Qubit: f.Qubits[0], Value: mapped})
				}
			}
		}
	}
	round, err := q.star.ParseESM(&qpdo.Result{Measurements: outcomes})
	if err != nil {
		return err
	}
	rep.ESMRounds++
	q.rounds = append(q.rounds, round)
	if len(q.rounds) < 2 {
		return nil
	}
	r1, r2 := q.rounds[0], q.rounds[1]
	q.rounds = q.rounds[:0]
	corrA := q.decA.Decode(r1.A, r2.A)
	corrB := q.decB.Decode(r1.B, r2.B)
	if q.cycles != nil {
		q.cycles.AddWindowEpilogue(len(corrA)+len(corrB), 2*esmCycles)
	}
	for _, d := range corrA {
		if err := q.issue(circuit.NewOp(gates.Z, q.star.Data[d]), rep, false); err != nil {
			return err
		}
		rep.Corrections++
	}
	for _, d := range corrB {
		if err := q.issue(circuit.NewOp(gates.X, q.star.Data[d]), rep, false); err != nil {
			return err
		}
		rep.Corrections++
	}
	return nil
}
