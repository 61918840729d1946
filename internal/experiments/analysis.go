package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// PairedSweeps couples the with- and without-Pauli-frame sweeps taken at
// the same PER points (thesis Figs 5.15-5.24 all derive from this).
type PairedSweeps struct {
	Without []PointResult
	With    []PointResult
}

// RunPairedSweeps runs both configurations over the same PER grid.
func RunPairedSweeps(cfg SweepConfig) (PairedSweeps, error) {
	var out PairedSweeps
	cfg.WithPauliFrame = false
	var err error
	if out.Without, err = RunSweep(cfg); err != nil {
		return out, err
	}
	cfg.WithPauliFrame = true
	cfg.BaseSeed += 7_777_777 // independent samples, as in the thesis
	if out.With, err = RunSweep(cfg); err != nil {
		return out, err
	}
	return out, nil
}

// DiffPoint is one entry of the absolute-difference series of thesis
// Figs 5.17-5.18.
type DiffPoint struct {
	PER float64
	// Delta is δ_PL = PL(without PF) − PL(with PF) (thesis Eq. 5.2).
	Delta float64
	// SigmaMax is max(σ_with, σ_without) (thesis Eq. 5.3).
	SigmaMax float64
}

// DiffSeries computes the absolute LER difference with σmax bands.
func (p PairedSweeps) DiffSeries() []DiffPoint {
	n := len(p.Without)
	out := make([]DiffPoint, 0, n)
	for i := 0; i < n && i < len(p.With); i++ {
		out = append(out, DiffPoint{
			PER:      p.Without[i].PER,
			Delta:    p.Without[i].MeanLER() - p.With[i].MeanLER(),
			SigmaMax: math.Max(p.Without[i].StdLER(), p.With[i].StdLER()),
		})
	}
	return out
}

// CVPoint is one entry of the window-count coefficient-of-variation
// series (thesis Figs 5.19-5.20).
type CVPoint struct {
	PER               float64
	CVWithout, CVWith float64
}

// CVSeries computes the coefficient of variation of window counts.
func (p PairedSweeps) CVSeries() []CVPoint {
	n := len(p.Without)
	out := make([]CVPoint, 0, n)
	for i := 0; i < n && i < len(p.With); i++ {
		out = append(out, CVPoint{
			PER:       p.Without[i].PER,
			CVWithout: stats.CV(p.Without[i].WindowCounts),
			CVWith:    stats.CV(p.With[i].WindowCounts),
		})
	}
	return out
}

// TTestPoint is one entry of the significance series (thesis
// Figs 5.21-5.24).
type TTestPoint struct {
	PER                      float64
	IndependentP, PairedPVal float64
}

// TTestSeries runs both t-tests per PER point on the LER samples.
func (p PairedSweeps) TTestSeries() ([]TTestPoint, error) {
	n := len(p.Without)
	out := make([]TTestPoint, 0, n)
	for i := 0; i < n && i < len(p.With); i++ {
		ind, err := stats.TTestIndependent(p.Without[i].LERs, p.With[i].LERs)
		if err != nil {
			return nil, fmt.Errorf("PER %g: %w", p.Without[i].PER, err)
		}
		pair, err := stats.TTestPaired(p.Without[i].LERs, p.With[i].LERs)
		if err != nil {
			return nil, fmt.Errorf("PER %g: %w", p.Without[i].PER, err)
		}
		out = append(out, TTestPoint{
			PER:          p.Without[i].PER,
			IndependentP: ind.P,
			PairedPVal:   pair.P,
		})
	}
	return out, nil
}

// Significant reports whether the p-values are consistently below the
// conventional 0.05 criterion — the thesis' test for a real PF effect
// (it finds none).
func Significant(ps []TTestPoint) bool {
	if len(ps) == 0 {
		return false
	}
	below := 0
	for _, p := range ps {
		if p.IndependentP < 0.05 {
			below++
		}
	}
	// "Consistently": a majority of points, far beyond the 5% false
	// positive rate expected under the null.
	return below*2 > len(ps)
}

// MeanP returns the mean independent-test p-value (the thesis observes
// ≈0.5, the null expectation).
func MeanP(ps []TTestPoint) float64 {
	if len(ps) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, p := range ps {
		s += p.IndependentP
	}
	return s / float64(len(ps))
}

// PseudoThreshold estimates where the mean-LER curve crosses PL = p.
func PseudoThreshold(points []PointResult) float64 {
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return points[idx[a]].PER < points[idx[b]].PER })
	for i, j := range idx {
		xs[i] = points[j].PER
		ys[i] = points[j].MeanLER()
	}
	return stats.PseudoThreshold(xs, ys)
}

// Table renders a sweep as an aligned text table with an optional CSV
// twin, the reproduction's stand-in for the thesis plots. Error bars are
// the 95% Wilson score interval on the pooled m/R proportion — honest in
// the rare-event regime where the old per-sample normal approximation
// (mean ± stddev) collapses to zero width.
func Table(points []PointResult, label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", label)
	fmt.Fprintf(&b, "%-12s %-12s %-12s %-12s %-8s %-12s %-12s\n",
		"PER", "LER", "wilson_lo", "wilson_hi", "n", "gates_saved", "slots_saved")
	for _, p := range points {
		lo, hi := p.WilsonLER()
		fmt.Fprintf(&b, "%-12.4e %-12.4e %-12.4e %-12.4e %-8d %-12.5f %-12.5f\n",
			p.PER, p.MeanLER(), lo, hi, len(p.LERs),
			stats.Mean(p.GatesSaved), stats.Mean(p.SlotsSaved))
	}
	return b.String()
}

// CSV renders the sweep in machine-readable form.
func CSV(points []PointResult) string {
	var b strings.Builder
	b.WriteString("per,ler_mean,wilson_lo,wilson_hi,samples,errors,windows,gates_saved,slots_saved\n")
	for _, p := range points {
		lo, hi := p.WilsonLER()
		fmt.Fprintf(&b, "%g,%g,%g,%g,%d,%d,%d,%g,%g\n",
			p.PER, p.MeanLER(), lo, hi, len(p.LERs), p.TotalErrors, p.TotalWindows,
			stats.Mean(p.GatesSaved), stats.Mean(p.SlotsSaved))
	}
	return b.String()
}
