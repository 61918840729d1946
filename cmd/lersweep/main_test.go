package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// run1 runs one lersweep invocation in process and returns its stdout
// and stderr.
func run1(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(args, &out, &errb)
	return out.String(), errb.String(), err
}

// TestGoldenOutputs byte-compares each experiment's stdout with the
// output of the separate binaries that the sweep and its subcommands
// replaced (lersweep, steanesweep, ttest, savings, dsweep and compute),
// recorded at the same flags. The Steane frame case recorded
// steanesweep's -min 1e-4 -max 2e-3 as the range 1e-4,2e-3.
func TestGoldenOutputs(t *testing.T) {
	small := "-points 2 -samples 2 -errors 2 -maxwindows 2000 -workers 1"
	for _, tc := range []struct {
		name, args, want string
	}{
		{"sweep", small, goldenSweep},
		{"sweep-framesim", small + " -engine framesim -lanes 2 -samples 130", goldenSweepFrameSim},
		{"steane", "-code steane " + small, goldenSteane},
		{"steane-frame", "-code steane -engine frame -lanes 2 -range 1e-4,2e-3 -points 2 -samples 130 -errors 2 -maxwindows 2000 -workers 1", goldenSteaneFrame},
		{"ttest", "ttest " + small, goldenTTest},
		{"savings", "savings -points 2 -samples 1 -errors 2 -maxwindows 2000", goldenSavings},
		{"savings-bound", "savings -bound -tsesm 4", goldenSavingsBound},
		{"dsweep", "dsweep -d 3,5 -errors 2 -maxwindows 3000 -workers 1", goldenDSweep},
		{"compute", "compute -errors 2 -maxwindows 3000 -workers 1", goldenCompute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, err := run1(t, strings.Fields(tc.args)...)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("lersweep %s printed\n%s\nwant\n%s", tc.args, got, tc.want)
			}
		})
	}
}

// TestSweepOutputIndependentOfWorkersAndStore requires the sweep to
// print the same bytes with two workers, through a fresh store, and on
// a second run that the store serves without computing a shard.
func TestSweepOutputIndependentOfWorkersAndStore(t *testing.T) {
	small := strings.Fields("-points 2 -samples 2 -errors 2 -maxwindows 2000")
	store := t.TempDir()
	for i, extra := range [][]string{
		{"-workers", "2"},
		{"-workers", "1", "-store", store},
		{"-workers", "2", "-store", store},
	} {
		got, progress, err := run1(t, append(small, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		if got != goldenSweep {
			t.Errorf("%q printed\n%s\nwant\n%s", extra, got, goldenSweep)
		}
		if i == 2 && strings.Count(progress, "shards cached, 0 computed") != 2 {
			t.Errorf("second store run computed shards:\n%s", progress)
		}
	}
}

// TestBadFlagsAreUsageErrors requires every bad invocation to fail with
// a usageError (exit 2) before it prints anything to stdout.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, args := range []string{
		"-code bogus",
		"-range 5e-4,1e-4",
		"-lanes 2",
		"-stoprel NaN",
		"stray",
		"compute -per 1.5",
		"compute -per NaN",
		"compute -errors 0",
		"compute stray",
		"ttest -type q",
		"ttest -range bogus",
		"ttest -samples 0",
		"ttest stray",
		"dsweep -d 4",
		"dsweep -d x",
		"dsweep -per 0",
		"dsweep stray",
		"savings -bound -tsesm 0",
		"savings -tsesm 0",
		"savings -points 0",
		"savings stray",
		"savings -bound -tsesm 4611686018427387904",
	} {
		out, _, err := run1(t, strings.Fields(args)...)
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("lersweep %s: err = %v, want a usageError", args, err)
		}
		if out != "" {
			t.Errorf("lersweep %s printed %q to stdout before failing", args, out)
		}
	}
}

const (
	goldenSweep = `# PER vs LER, logical X errors, without Pauli frame (Figs 5.11/5.12)
PER          LER          wilson_lo    wilson_hi    n        gates_saved  slots_saved 
1.0000e-04   0.0000e+00   0.0000e+00   9.5944e-04   2        0.00000      0.00000     
1.0000e-02   1.1111e-01   3.2884e-02   1.9553e-01   2        0.00000      0.00000     

pseudo-threshold (LER = PER crossing): 1.098e-04  [thesis: ≈3.0e-4]

# PER vs LER, logical X errors, with Pauli frame (Figs 5.13/5.14)
PER          LER          wilson_lo    wilson_hi    n        gates_saved  slots_saved 
1.0000e-04   0.0000e+00   0.0000e+00   9.5944e-04   2        0.00020      0.00095     
1.0000e-02   5.9764e-02   2.2125e-02   1.3610e-01   2        0.00955      0.03632     

pseudo-threshold (LER = PER crossing): 1.199e-04  [thesis: ≈3.0e-4]

# overlay (Figs 5.15/5.16): PER, LER without PF, LER with PF, delta
1.0000e-04   0.0000e+00   0.0000e+00   +0.00e+00
1.0000e-02   1.1111e-01   5.9764e-02   +5.13e-02
`
	goldenSweepFrameSim = `# PER vs LER, logical X errors, without Pauli frame (Figs 5.11/5.12)
PER          LER          wilson_lo    wilson_hi    n        gates_saved  slots_saved 
1.0000e-04   2.6923e-05   1.3042e-05   5.5578e-05   130      0.00000      0.00000     
1.0000e-02   8.9006e-02   5.3070e-02   6.7165e-02   130      0.00000      0.00000     

pseudo-threshold (LER = PER crossing): 1.091e-04  [thesis: ≈3.0e-4]

# PER vs LER, logical X errors, with Pauli frame (Figs 5.13/5.14)
PER          LER          wilson_lo    wilson_hi    n        gates_saved  slots_saved 
1.0000e-04   4.0821e-05   1.8275e-05   6.6019e-05   130      0.00017      0.00085     
1.0000e-02   9.5350e-02   5.9241e-02   7.4910e-02   130      0.00961      0.03577     

pseudo-threshold (LER = PER crossing): 1.069e-04  [thesis: ≈3.0e-4]

# overlay (Figs 5.15/5.16): PER, LER without PF, LER with PF, delta
1.0000e-04   2.6923e-05   4.0821e-05   -1.39e-05
1.0000e-02   8.9006e-02   9.5350e-02   -6.34e-03
`
	goldenSteane = `# Steane [[7,1,3]] PER vs LER, logical X errors, without Pauli frame
PER          LER          wilson_lo    wilson_hi    n        gates_saved  slots_saved 
1.0000e-04   0.0000e+00   0.0000e+00   9.5944e-04   2        0.00000      0.00000     
1.0000e-02   1.8592e-02   3.8858e-03   2.5364e-02   2        0.00000      0.00000     

pseudo-threshold (LER = PER crossing): 2.139e-04

# Steane [[7,1,3]] PER vs LER, logical X errors, with Pauli frame
PER          LER          wilson_lo    wilson_hi    n        gates_saved  slots_saved 
1.0000e-04   0.0000e+00   0.0000e+00   9.5944e-04   2        0.00046      0.00070     
1.0000e-02   1.4874e-02   5.5891e-03   3.6277e-02   2        0.00624      0.00886     

pseudo-threshold (LER = PER crossing): 2.990e-04

# overlay: PER, LER without PF, LER with PF, delta
1.0000e-04   0.0000e+00   0.0000e+00   +0.00e+00
1.0000e-02   1.8592e-02   1.4874e-02   +3.72e-03
`
	goldenSteaneFrame = `# Steane [[7,1,3]] PER vs LER, logical X errors, without Pauli frame
PER          LER          wilson_lo    wilson_hi    n        gates_saved  slots_saved 
1.0000e-04   4.4895e-04   2.7578e-04   4.2260e-04   130      0.00000      0.00000     
2.0000e-03   5.3796e-02   3.2984e-02   4.1863e-02   130      0.00000      0.00000     

pseudo-threshold: no crossing in range
# Steane [[7,1,3]] PER vs LER, logical X errors, with Pauli frame
PER          LER          wilson_lo    wilson_hi    n        gates_saved  slots_saved 
1.0000e-04   5.0738e-04   3.2629e-04   4.8544e-04   130      0.00051      0.00076     
2.0000e-03   5.2593e-02   3.2331e-02   4.1038e-02   130      0.00719      0.00980     

pseudo-threshold: no crossing in range
# overlay: PER, LER without PF, LER with PF, delta
1.0000e-04   4.4895e-04   5.0738e-04   -5.84e-05
2.0000e-03   5.3796e-02   5.2593e-02   +1.20e-03
`
	goldenTTest = `# absolute LER difference δPL = PL(no PF) − PL(PF), logical X errors (Figs 5.17/5.18)
PER          delta          sigma_max    within ±sigma_max?
1.0000e-04   +0.0000e+00    0.0000e+00   yes
1.0000e-02   +3.6232e-02    1.0137e-01   yes
-> 2/2 points within ±σmax (thesis: nearly all)

# coefficient of variation of window counts (Figs 5.19/5.20; thesis mean ≈13%)
PER          cv_noPF      cv_PF       
1.0000e-04   0.0000       0.0000      
1.0000e-02   0.9204       0.6000      
-> mean CV: 38.0%

# t-test ρ-values per PER (Figs 5.21-5.24)
PER          independent    paired        
1.0000e-04   1.0000         1.0000        
1.0000e-02   0.6888         0.7847        
-> mean independent ρ: 0.844 (thesis: ≈0.5, the null expectation)
-> no statistically significant Pauli frame effect on the LER (thesis conclusion reproduced)
`
	goldenSavings = `# gates and time slots saved by the Pauli frame (Figs 5.25/5.26)
PER          gates_saved_%    slots_saved_%   
1.0000e-04   0.0156           0.0905          
1.0000e-02   0.7949           3.2558          
-> ceiling: 1 correction slot per 17-slot window = 5.9% of slots (thesis §5.3.2)

# upper bound on relative LER improvement by a Pauli frame, tsESM=8 (Eq. 5.12, Fig 5.27)
distance   bound_%     
3          5.882        ##########################################################
4          4.000        ########################################
5          3.030        ##############################
6          2.439        ########################
7          2.041        ####################
8          1.754        #################
9          1.538        ###############
10         1.370        #############
11         1.235        ############
-> the bound converges to 0 with distance: no LER benefit from a Pauli frame at any scale
`
	goldenSavingsBound = `# upper bound on relative LER improvement by a Pauli frame, tsESM=4 (Eq. 5.12, Fig 5.27)
distance   bound_%     
3          11.111       ###############################################################################################################
4          7.692        ############################################################################
5          5.882        ##########################################################
6          4.762        ###############################################
7          4.000        ########################################
8          3.448        ##################################
9          3.030        ##############################
10         2.703        ###########################
11         2.439        ########################
-> the bound converges to 0 with distance: no LER benefit from a Pauli frame at any scale
`
	goldenDSweep = `distance scaling at PER=0.0005 (windows are (d−1) ESM rounds long)

d    windows    LER          LER/round      slots_saved%   bound_%      gates_saved%
3    3000       3.333e-04    1.667e-04      0.4191         5.8824       0.0840      
5    713        2.805e-03    7.013e-04      0.8905         3.0303       0.0685      

the slots-saved ceiling follows Eq. 5.12: 1/((d−1)·8+1) — the Pauli frame's
possible LER benefit vanishes with distance, while the LER itself improves.
`
	goldenCompute = `two-star computation (windows + CNOT_L cycles) at PER=0.001

config       windows    LER          corr_gates     slots_saved%  
no frame     130        1.538e-02    55             0.000         
pauli frame  54         3.704e-02    37             2.941         

idling single qubit for reference: LER 1.736e-03
computation / idle LER ratio: 8.9 (transversal CNOT_L adds error surface)
the Pauli frame stays LER-neutral during computation, as in the idling study
`
)
