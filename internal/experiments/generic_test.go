package experiments

import "testing"

func TestGenericLERZeroNoise(t *testing.T) {
	for _, d := range []int{3, 5} {
		r, err := RunLER(LERConfig{
			Code: CodeSurface, Distance: d, PER: 0, MaxWindows: 20, MaxLogicalErrors: 1, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Windows != 20 || r.LogicalErrors != 0 || r.CorrectionGates != 0 {
			t.Errorf("d=%d zero-noise run: %+v", d, r)
		}
	}
}

func TestGenericD3MatchesSC17Scale(t *testing.T) {
	// The d=3 generic plane and the SC17 layer implement the same code
	// and window scheme (LUT vs matching decoders are both min-weight
	// at d=3), so their LERs at one PER must agree within noise.
	sc17, err := RunLER(LERConfig{PER: 2e-3, MaxLogicalErrors: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := RunLER(LERConfig{Code: CodeSurface, Distance: 3, PER: 2e-3, MaxLogicalErrors: 20, MaxWindows: 1_000_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if gen.LER <= 0 || sc17.LER <= 0 {
		t.Fatalf("degenerate LERs: %v / %v", gen.LER, sc17.LER)
	}
	ratio := gen.LER / sc17.LER
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("d=3 generic LER %.2e vs SC17 LER %.2e (ratio %.2f)", gen.LER, sc17.LER, ratio)
	}
}

// TestDistanceSuppressesLER: below threshold the larger code must win
// (the defining property of the code family; thesis §2.5.1). Windows are
// (d−1) rounds long, so the fair comparison is the LER per ESM round.
func TestDistanceSuppressesLER(t *testing.T) {
	if testing.Short() {
		t.Skip("distance comparison skipped in -short mode")
	}
	const per = 4e-4
	pooled := func(d int) float64 {
		errs, rounds := 0, 0
		for seed := int64(1); seed <= 3; seed++ {
			r, err := RunLER(LERConfig{
				Code: CodeSurface, Distance: d, PER: per, MaxLogicalErrors: 15,
				MaxWindows: 600000, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			errs += r.LogicalErrors
			rounds += r.Windows * (d - 1)
		}
		return float64(errs) / float64(rounds)
	}
	perRound3 := pooled(3)
	perRound5 := pooled(5)
	t.Logf("pooled per-round LER at p=%g: d=3 %.2e, d=5 %.2e", per, perRound3, perRound5)
	if perRound5 >= perRound3 {
		t.Errorf("d=5 per-round LER %.2e not below d=3 %.2e at p=%g",
			perRound5, perRound3, per)
	}
}

// TestFig527SavingsShrinkWithDistance: the Pauli frame's slot savings at
// d=5 must fall below the d=3 savings and stay under the Eq. 5.12 bound,
// the empirical confirmation of Fig 5.27.
func TestFig527SavingsShrinkWithDistance(t *testing.T) {
	if testing.Short() {
		t.Skip("distance comparison skipped in -short mode")
	}
	const per = 5e-3
	d3, err := RunLER(LERConfig{Code: CodeSurface, Distance: 3, PER: per, WithPauliFrame: true, MaxLogicalErrors: 15, MaxWindows: 1_000_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d5, err := RunLER(LERConfig{Code: CodeSurface, Distance: 5, PER: per, WithPauliFrame: true, MaxLogicalErrors: 15, MaxWindows: 100000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s3, s5 := d3.SlotsSavedFrac(), d5.SlotsSavedFrac()
	if s3 <= 0 || s5 <= 0 {
		t.Fatalf("no savings recorded: d3=%v d5=%v", s3, s5)
	}
	if s5 >= s3 {
		t.Errorf("slot savings did not shrink with distance: d3=%.4f d5=%.4f", s3, s5)
	}
	if bound := UpperBoundRelativeImprovement(5, 8); s5 > bound+0.01 {
		t.Errorf("d=5 savings %.4f exceed the Eq. 5.12 bound %.4f", s5, bound)
	}
}
