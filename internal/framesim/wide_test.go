package framesim_test

import (
	"testing"

	"repro/internal/framesim"
	"repro/internal/layers"
)

// wideRunner abstracts the three engines' wide batch entry points so the
// lane-extraction property is pinned uniformly.
type wideRunner struct {
	name string
	run  func(seeds []int64, shots int) ([]framesim.ShotResult, error)
}

func wideRunners(t *testing.T, cfg framesim.Config) []wideRunner {
	t.Helper()
	dense, err := framesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := framesim.NewSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steane, err := framesim.NewSteane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []wideRunner{
		{"dense", dense.RunBatchWide},
		{"sparse", sparse.RunBatchWide},
		{"steane", steane.RunBatchWide},
	}
}

func wideSeeds(w int, base int64) []int64 {
	seeds := make([]int64, w)
	for k := range seeds {
		seeds[k] = base + int64(k)
	}
	return seeds
}

// TestWideLaneExtraction is the width-W ↔ width-1 contract on every
// engine: a W-wide batch — including one whose last word is partial —
// must equal the concatenation of W independent single-word batches from
// the same seeds, bit for bit. This is what makes the lane width a pure
// throughput knob in the sweep pipeline. At PER 1e-5 the quiet-window
// skip carries the run, and a wide batch may only skip the windows that
// are quiet in every live word.
func TestWideLaneExtraction(t *testing.T) {
	for _, tc := range []struct {
		per        float64
		maxWindows int
	}{
		{4e-3, 1200},
		{1e-5, 20000},
	} {
		cfg := framesim.Config{
			Model:            layers.Depolarizing(tc.per),
			MaxLogicalErrors: 3,
			MaxWindows:       tc.maxWindows,
			WithPauliFrame:   true,
			RefSeed:          21,
		}
		for _, r := range wideRunners(t, cfg) {
			for _, w := range []int{2, 4, 8} {
				seeds := wideSeeds(w, int64(1000*w))
				// A partial last word exercises the active-mask setup.
				shots := 64*(w-1) + 17
				wide, err := r.run(seeds, shots)
				if err != nil {
					t.Fatal(err)
				}
				if len(wide) != shots {
					t.Fatalf("%s per=%g w=%d: %d results, want %d", r.name, tc.per, w, len(wide), shots)
				}
				for k := 0; k < w; k++ {
					cnt := shots - 64*k
					if cnt > 64 {
						cnt = 64
					}
					one, err := r.run(seeds[k:k+1], cnt)
					if err != nil {
						t.Fatal(err)
					}
					for j, res := range one {
						if res != wide[64*k+j] {
							t.Fatalf("%s per=%g w=%d word %d shot %d: wide %+v, single %+v",
								r.name, tc.per, w, k, j, wide[64*k+j], res)
						}
					}
				}
			}
		}
	}
}
