package layers

import (
	"fmt"
	"math/rand"

	"repro/internal/gates"
)

// Model is a Pauli error channel specification for the error layer. The
// thesis evaluates the symmetric depolarizing model (§5.3.1) and lists
// "more realistic error models" as future work (Chapter 6); Biased
// follows the biased-noise literature it cites (Aliferis & Preskill
// [28]) and Relaxation is the Pauli twirl of amplitude/phase damping.
type Model struct {
	// Name labels the model in reports.
	Name string
	// PX, PY, PZ are the per-operation probabilities of each Pauli
	// error on single-qubit operations and idle slots.
	PX, PY, PZ float64
	// PMeas is the probability of an X error immediately before a
	// measurement (result flip).
	PMeas float64
	// CorrelatedTwoQubit uses the thesis' p/15 uniform two-qubit table
	// (with p = PX+PY+PZ); otherwise each operand independently suffers
	// the single-qubit channel.
	CorrelatedTwoQubit bool
}

// TotalSingle is the per-operation error probability.
func (m Model) TotalSingle() float64 { return m.PX + m.PY + m.PZ }

// Validate rejects non-physical parameters, NaN included.
func (m Model) Validate() error {
	for _, p := range []float64{m.PX, m.PY, m.PZ, m.PMeas} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("layers: probability %g out of range", p)
		}
	}
	if m.TotalSingle() > 1 {
		return fmt.Errorf("layers: total single-qubit error probability %g exceeds 1", m.TotalSingle())
	}
	return nil
}

// Depolarizing is the thesis model: p/3 for each Pauli, p for
// measurement flips, p/15 for each correlated two-qubit error.
func Depolarizing(p float64) Model {
	return Model{
		Name: fmt.Sprintf("depolarizing(p=%g)", p),
		PX:   p / 3, PY: p / 3, PZ: p / 3,
		PMeas:              p,
		CorrelatedTwoQubit: true,
	}
}

// Biased is a dephasing-biased channel: total error probability p with
// Z errors η times more likely than X and Y together follow the
// convention pZ = p·η/(η+1), pX = pY = p/(2(η+1)).
func Biased(p, eta float64) Model {
	return Model{
		Name: fmt.Sprintf("biased(p=%g, eta=%g)", p, eta),
		PX:   p / (2 * (eta + 1)), PY: p / (2 * (eta + 1)),
		PZ:    p * eta / (eta + 1),
		PMeas: p,
	}
}

// Relaxation is the Pauli twirl of simultaneous amplitude damping
// (probability pRelax per operation) and pure dephasing (pDephase): the
// twirled amplitude-damping channel contributes pRelax/4 to each of X
// and Y and pRelax/4 to Z; dephasing adds to Z.
func Relaxation(pRelax, pDephase float64) Model {
	return Model{
		Name: fmt.Sprintf("relaxation(T1=%g, Tphi=%g)", pRelax, pDephase),
		PX:   pRelax / 4, PY: pRelax / 4,
		PZ:    pRelax/4 + pDephase/2,
		PMeas: pRelax,
	}
}

// draw samples the single-qubit channel: nil for no error.
func (m Model) draw(rng *rand.Rand) *gates.Gate {
	u := rng.Float64()
	switch {
	case u < m.PX:
		return gates.X
	case u < m.PX+m.PY:
		return gates.Y
	case u < m.PX+m.PY+m.PZ:
		return gates.Z
	}
	return nil
}
