package experiments

import (
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qpdo"
	"repro/internal/steane"
	"repro/internal/surface"
	"repro/internal/surfaced"
)

// qecLayer is the seam between runLER and a code's QEC layer, the top
// of the Fig 5.8 stack: the windows protocol of Listing 5.7 needs a
// noiseless logical reset, QEC windows, one diagnostic ESM round and the
// logical probe. runLER runs reset, diagnose and probe in bypass mode,
// set on the stack's top counter; every adapter's QEC layer only
// forwards the toggle, so setting it there is the same as setting it on
// the layer.
type qecLayer interface {
	// reset prepares the logical state whose et errors probe detects:
	// |0⟩_L for logical X errors, |+⟩_L for logical Z errors.
	reset(et ErrorType) error
	// window runs one step of the protocol and returns the correction
	// gates and time slots the decoder issued and the number of QEC
	// windows the step ran.
	window() (gates, slots, windows int, err error)
	// diagnose runs one ESM round and reports whether it saw no syndrome.
	diagnose() (clean bool, err error)
	// probe reads the logical observable that et's errors flip: Z_L for
	// logical X errors, X_L for logical Z errors.
	probe(et ErrorType) (int, error)
}

// newQECLayer builds cfg's QEC layer on top of below, with its qubits
// allocated.
func newQECLayer(cfg LERConfig, below qpdo.Core) (qecLayer, error) {
	switch cfg.Code {
	case CodeSteane:
		l := steane.NewLayer(below)
		return steaneLayer{l}, l.CreateQubits(1)
	case CodeSurface:
		p, err := surfaced.NewPlane(below, cfg.Distance)
		return planeLayer{p}, err
	case CodeComputation:
		// The star's own default of one initialization round: SC17's
		// initRounds would add two ESM rounds to every restart.
		l := surface.NewNinjaStarLayer(below, surface.Config{Ancilla: surface.AncillaDedicated})
		return &twoStarLayer{NinjaStarLayer: l}, l.CreateQubits(2)
	}
	l := surface.NewNinjaStarLayer(below, surface.Config{
		Ancilla:     surface.AncillaDedicated,
		InitRounds:  initRounds,
		DecoderRule: cfg.DecoderRule,
	})
	return starLayer{l}, l.CreateQubits(1)
}

// initLogical prepares logical qubit 0 of an SC17 star or a Steane
// block in the state whose et errors the probe detects.
func initLogical(c qpdo.Core, et ErrorType) error {
	init := circuit.New().Add(gates.Prep, 0)
	if et == LogicalZ {
		init.Add(gates.H, 0) // |+⟩_L: both codes' logical H
	}
	_, err := qpdo.Run(c, init)
	return err
}

// starLayer adapts the SC17 ninja-star layer to runLER. A window is two
// ESM rounds, windowed decoding against the carried round and at most
// one correction slot (thesis §5.3, Fig 5.9).
type starLayer struct{ *surface.NinjaStarLayer }

func (l starLayer) reset(et ErrorType) error { return initLogical(l.NinjaStarLayer, et) }

func (l starLayer) window() (int, int, int, error) {
	w, err := l.RunWindow(0)
	return w.CorrectionGates, w.CorrectionSlots, 1, err
}

func (l starLayer) diagnose() (bool, error) {
	round, err := l.RunESMRound(0)
	return round.A == 0 && round.B == 0, err
}

func (l starLayer) probe(et ErrorType) (int, error) {
	if et == LogicalZ {
		return l.ProbeXL(0)
	}
	return l.ProbeZL(0)
}

// steaneLayer adapts one Steane [[7,1,3]] block to runLER. A window is
// one noisy ESM round with two-round-agreement decode — the Steane layer
// decodes every round, where the SC17 star needs two rounds per window —
// and a correcting window issues one slot.
type steaneLayer struct{ *steane.Layer }

func (l steaneLayer) reset(et ErrorType) error { return initLogical(l.Layer, et) }

func (l steaneLayer) window() (int, int, int, error) {
	info, err := l.RunWindowInfo(0)
	slots := 0
	if info.Gates > 0 {
		slots = 1
	}
	return info.Gates, slots, 1, err
}

func (l steaneLayer) diagnose() (bool, error) {
	sx, sz, err := l.RunESMRound(0)
	return sx == 0 && sz == 0, err
}

func (l steaneLayer) probe(et ErrorType) (int, error) {
	if et == LogicalZ {
		return l.ProbeXL(0)
	}
	return l.ProbeZL(0)
}

// planeLayer adapts the distance-d plane of package surfaced to runLER,
// the thesis' future-work experiment ("repeat these experiments using a
// larger distance surface code", Chapter 6) that tests the Eq. 5.12
// prediction. A window is d−1 ESM rounds decoded by matching. The plane
// has no X_L probe, so it counts logical X errors only.
type planeLayer struct{ *surfaced.Plane }

func (l planeLayer) reset(ErrorType) error { return l.InitZero() }

func (l planeLayer) window() (int, int, int, error) {
	w, err := l.RunWindow()
	return w.CorrectionGates, w.CorrectionSlots, 1, err
}

func (l planeLayer) diagnose() (bool, error) {
	round, err := l.RunESMRound()
	return round.Clean(), err
}

func (l planeLayer) probe(ErrorType) (int, error) { return l.ProbeZL() }

// twoStarLayer adapts the fault-tolerant computation of thesis Fig 2.6
// to runLER: QEC windows interleaved with logical operations on two
// ninja stars, rather than the single idling qubit of §5.3. One step is
// a window on each star, then a noisy transversal CNOT_L, whose net
// effect is the identity on |00⟩_L. It counts logical X errors only.
type twoStarLayer struct {
	*surface.NinjaStarLayer
	// restarts counts the noiseless restarts since reset; probe reports
	// its parity.
	restarts int
}

func (l *twoStarLayer) reset(ErrorType) error {
	l.restarts = 0
	return l.prepBoth()
}

func (l *twoStarLayer) prepBoth() error {
	_, err := qpdo.Run(l.NinjaStarLayer, circuit.New().Add(gates.Prep, 0).Add(gates.Prep, 1))
	return err
}

func (l *twoStarLayer) window() (g, slots, windows int, err error) {
	for q := 0; q < 2; q++ {
		w, err := l.RunWindow(q)
		if err != nil {
			return g, slots, windows, err
		}
		g += w.CorrectionGates
		slots += w.CorrectionSlots
		windows++
	}
	_, err = qpdo.Run(l.NinjaStarLayer, circuit.New().Add(gates.CNOT, 0, 1))
	return g, slots, windows, err
}

// diagnose runs star 1's ESM round only when star 0's was clean: a
// syndrome on either star means waiting for the decoder to catch up.
func (l *twoStarLayer) diagnose() (bool, error) {
	for q := 0; q < 2; q++ {
		round, err := l.RunESMRound(q)
		if err != nil || round.A != 0 || round.B != 0 {
			return false, err
		}
	}
	return true, nil
}

// probe reads both stars' Z_L. When either reads 1 it restarts both
// stars noiselessly, which keeps the expected state well defined even
// though CNOT_L propagates logical X errors between the stars. It
// returns the parity of the restarts, so runLER counts one logical
// error per restart.
func (l *twoStarLayer) probe(ErrorType) (int, error) {
	errored := false
	for q := 0; q < 2; q++ {
		out, err := l.ProbeZL(q)
		if err != nil {
			return 0, err
		}
		errored = errored || out != 0
	}
	if errored {
		if err := l.prepBoth(); err != nil {
			return 0, err
		}
		l.restarts++
	}
	return l.restarts & 1, nil
}
