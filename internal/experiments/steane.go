package experiments

import "repro/internal/steane"

// steaneLayer adapts one Steane [[7,1,3]] block to runLER. A window is
// one noisy ESM round with two-round-agreement decode — the Steane layer
// decodes every round, where the SC17 star needs two rounds per window —
// and a correcting window issues one slot.
type steaneLayer struct{ *steane.Layer }

func (l steaneLayer) window() (int, int, error) {
	info, err := l.RunWindowInfo(0)
	slots := 0
	if info.Gates > 0 {
		slots = 1
	}
	return info.Gates, slots, err
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
