package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestStackWindowAllocs pins the allocation budget of the SC17 QPDO
// stack at the stack-paired benchmark settings (4 PERs × 4 runs × 250
// windows), PF off and PF on: at most 12 heap allocations per window on
// average, sweep setup and fold included. The layers rewrite circuits
// into pooled storage, so what remains is the cores' results and the
// decoder's correction circuits. The collector is off while counting,
// so runtime allocations on its behalf do not blur the count.
func TestStackWindowAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget = 12
	for _, pf := range []bool{false, true} {
		t.Run(fmt.Sprintf("pf=%v", pf), func(t *testing.T) {
			cfg := SweepConfig{
				Engine:           EngineStack,
				PERs:             []float64{1e-3, 2e-3, 4e-3, 8e-3},
				Samples:          4,
				ErrorType:        LogicalX,
				WithPauliFrame:   pf,
				MaxLogicalErrors: 1000,
				MaxWindows:       250,
				BaseSeed:         3837274156007706471,
				Workers:          2,
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pts, err := RunSweep(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			var windows int64
			for _, p := range pts {
				windows += p.TotalWindows
			}
			if windows != 4*4*250 {
				t.Fatalf("sweep ran %d windows, want %d", windows, 4*4*250)
			}
			perWindow := float64(after.Mallocs-before.Mallocs) / float64(windows)
			t.Logf("%.2f allocations, %.0f B per window", perWindow,
				float64(after.TotalAlloc-before.TotalAlloc)/float64(windows))
			if perWindow > budget {
				t.Errorf("%.2f allocations per window, budget %d", perWindow, budget)
			}
		})
	}
}
