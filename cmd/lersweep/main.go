// Command lersweep runs the thesis's logical-error-rate experiments on
// the windows protocol of Listing 5.7, with and without a Pauli frame.
// With no subcommand, or with flags first, it sweeps the LER of one
// logical qubit against the physical error rate (Figs 5.11–5.16), for
// Surface Code 17 or, with -code steane, for a Steane [[7,1,3]] block.
// The subcommands ttest (Figs 5.17–5.24), savings (Figs 5.25–5.27),
// dsweep (thesis Chapter 6) and compute (Fig 2.6) run the rest of the
// evaluation.
//
// Usage:
//
//	lersweep -range full -type x -mode both -samples 3 -errors 20
//	lersweep -range zoom -type z -mode pf -csv out.csv
//	lersweep -code steane -engine sparse -range 1e-4,2e-3 -points 7
//	lersweep -store ./sweeps -samples 3   # cache shards; reruns are free
//	lersweep ttest -range zoom
//	lersweep savings -bound
//	lersweep dsweep -d 3,5,7 -per 2e-3
//	lersweep compute -per 1e-3
//
// Results go to stdout, progress to stderr. A bad invocation exits 2
// before any simulation starts; a run that fails exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/sweepstore"
)

// subcommands maps each subcommand name to its runner. Every runner
// writes results to stdout and progress to stderr, and returns a
// usageError for a bad invocation before any simulation starts.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"ttest":   cmdTTest,
	"savings": cmdSavings,
	"dsweep":  cmdDSweep,
	"compute": cmdCompute,
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "lersweep:", err)
	var ue usageError
	if errors.As(err, &ue) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run runs the subcommand that args[0] names, or the PER sweep when it
// names none (no arguments, or flags first).
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && subcommands[args[0]] != nil {
		return subcommands[args[0]](args[1:], stdout, stderr)
	}
	return cmdSweep(args, stdout, stderr)
}

// usageError marks a bad invocation: exit 2, before any work runs.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, args ...any) error { return usageError(fmt.Sprintf(format, args...)) }

// flags is one command's flag set, holding the flags that the sweep and
// the subcommands share (most bound straight to the sweep config they
// set), and its output: results collect in out, progress goes to log.
// Each command defines the shared flags it takes; parse checks those.
type flags struct {
	*flag.FlagSet
	cfg                experiments.SweepConfig
	rng, etype         string
	points, minSamples int
	per                float64
	lo, hi             float64 // the PER range -range names, full without one
	out                strings.Builder
	log                *log.Logger
}

func newFlags(name string, stderr io.Writer) *flags {
	f := &flags{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError), lo: 1e-4, hi: 1e-2, log: log.New(stderr, "", 0)}
	f.SetOutput(stderr)
	return f
}

// flush writes the results collected in out to stdout, so that a failed
// write is an error rather than lost output.
func (f *flags) flush(stdout io.Writer) error {
	_, err := io.WriteString(stdout, f.out.String())
	f.out.Reset()
	return err
}

// parse parses args and checks the shared flags the command defined. A
// stray argument, a count below its minimum (for -samples, minSamples),
// an unknown -type, a bad -range or a -per outside (0, 1] is a
// usageError.
func (f *flags) parse(args []string) error {
	if err := f.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError(err.Error())
	}
	if f.NArg() > 0 {
		return usagef("unexpected argument %q", f.Arg(0))
	}
	for _, c := range []struct {
		name   string
		v, min int
	}{
		{"points", f.points, 1}, {"samples", f.cfg.Samples, f.minSamples}, {"errors", f.cfg.MaxLogicalErrors, 1},
		{"maxwindows", f.cfg.MaxWindows, 1}, {"workers", f.cfg.Workers, 0},
		{"stopmin", f.cfg.AdaptMinSamples, 0}, {"stopbatch", f.cfg.AdaptBatch, 0},
	} {
		if f.Lookup(c.name) != nil && c.v < c.min {
			return usagef("-%s must be >= %d, got %d", c.name, c.min, c.v)
		}
	}
	if f.Lookup("type") != nil {
		et, ok := map[string]experiments.ErrorType{"x": experiments.LogicalX, "z": experiments.LogicalZ}[strings.ToLower(f.etype)]
		if !ok {
			return usagef("unknown type %q (want x or z)", f.etype)
		}
		f.cfg.ErrorType = et
	}
	if f.Lookup("range") != nil {
		switch f.rng {
		case "full":
		case "zoom":
			f.lo, f.hi = 3e-4, 5e-4
		default:
			// Without a comma hi is empty, which ParseFloat rejects.
			lo, hi, _ := strings.Cut(f.rng, ",")
			var errLo, errHi error
			f.lo, errLo = strconv.ParseFloat(lo, 64)
			f.hi, errHi = strconv.ParseFloat(hi, 64)
			if errLo != nil || errHi != nil || !validPER(f.lo) || !validPER(f.hi) || f.hi < f.lo {
				return usagef("unknown range %q (want full, zoom or LO,HI with 0 < LO <= HI <= 1)", f.rng)
			}
		}
	}
	if f.Lookup("per") != nil && !validPER(f.per) {
		return usagef("-per must be in (0, 1], got %g", f.per)
	}
	return nil
}

// validPER reports whether p is a physical error rate, 0 < p <= 1.
func validPER(p float64) bool { return p > 0 && p <= 1 }

// sweep returns the checked sweep the parsed flags describe, with
// progress lines on log. Spec.Validate makes most
// checks, lane widths among them; the ones here are those that
// Spec.Normalized would hide by mapping the value to a default first.
func (f *flags) sweep() (experiments.SweepConfig, error) {
	c := f.cfg
	c.PERs = experiments.LogSpace(f.lo, f.hi, f.points)
	c.Progress = func(i int, per float64) {
		f.log.Printf("  point %d/%d (PER=%.3e) done", i+1, f.points, per)
	}
	switch {
	case math.IsNaN(c.AdaptRelWidth) || math.IsInf(c.AdaptRelWidth, 0) || c.AdaptRelWidth < 0:
		return c, usagef("-stoprel must be a finite value >= 0, got %v", c.AdaptRelWidth)
	case !(c.AdaptRelWidth > 0) && (c.AdaptMinSamples > 0 || c.AdaptBatch > 0):
		return c, usagef("-stopmin/-stopbatch require -stoprel > 0")
	}
	if _, err := experiments.SpecOf(c).SweepConfig(); err != nil {
		return c, usageError(err.Error())
	}
	return c, nil
}

// ler returns the run at -per, -errors and -maxwindows that dsweep and
// compute make of each configuration.
func (f *flags) ler(code experiments.Code, withPF bool, seed int64) experiments.LERConfig {
	return experiments.LERConfig{
		Code:             code,
		PER:              f.per,
		WithPauliFrame:   withPF,
		MaxLogicalErrors: f.cfg.MaxLogicalErrors,
		MaxWindows:       f.cfg.MaxWindows,
		Seed:             seed,
	}
}

// sweepCodes are the codes -code names, with the wording of the sweep's
// output for each: the table title, the suffixes of the PF-off and PF-on
// labels, the note after the pseudo-threshold and the overlay's suffix.
var sweepCodes = map[string]struct {
	code                                experiments.Code
	title, without, with, note, overlay string
}{
	"sc17":   {experiments.CodeSC17, "PER vs LER", " (Figs 5.11/5.12)", " (Figs 5.13/5.14)", "  [thesis: ≈3.0e-4]", " (Figs 5.15/5.16)"},
	"steane": {experiments.CodeSteane, "Steane [[7,1,3]] PER vs LER", "", "", "", ""},
}

// cmdSweep runs the PER sweep: the LER of one logical qubit versus the
// physical error rate, without and with a Pauli frame, for logical X or
// Z errors.
func cmdSweep(args []string, stdout, stderr io.Writer) (err error) {
	f := newFlags("lersweep", stderr)
	f.StringVar(&f.rng, "range", "full", "PER range: full (1e-4..1e-2), zoom (3e-4..5e-4, thesis Figs 5.12/5.14) or LO,HI")
	f.IntVar(&f.points, "points", 9, "number of log-spaced PER points")
	f.StringVar(&f.etype, "type", "x", "logical error type: x or z")
	codeName := f.String("code", "sc17", "QEC code: sc17 (Surface Code 17) or steane (Steane [[7,1,3]])")
	mode := f.String("mode", "both", "configuration: nopf, pf or both")
	f.IntVar(&f.cfg.Samples, "samples", 3, "repetitions per PER point (thesis: 10)")
	f.IntVar(&f.cfg.MaxLogicalErrors, "errors", 20, "logical errors per run before termination (thesis: 50)")
	f.IntVar(&f.cfg.MaxWindows, "maxwindows", 400000, "hard cap on windows per run")
	f.Int64Var(&f.cfg.BaseSeed, "seed", 2017, "base RNG seed")
	f.IntVar(&f.cfg.Workers, "workers", 0, "Monte-Carlo worker pool size (0 = all CPUs); results are identical for any value")
	csvPath := f.String("csv", "", "also write CSV to this file (suffix _pf/_nopf added in both mode)")
	engineName := f.String("engine", "stack", "simulation engine: stack (QPDO oracle), framesim (bit-sliced 64-shot Pauli-frame engine) or sparse (gap-skipping frame engine, fastest at low PER)")
	f.IntVar(&f.cfg.Lanes, "lanes", 1, "frame-engine batch width in 64-shot words (1, 2, 4 or 8; 64*lanes shots per pass); folded results are identical at every width")
	f.Float64Var(&f.cfg.AdaptRelWidth, "stoprel", 0, "adaptive early stop: target relative 95% Wilson half-width on each point's LER (0 = run all samples)")
	f.IntVar(&f.cfg.AdaptMinSamples, "stopmin", 0, "adaptive early stop: minimum samples per point before stopping (0 = default 64)")
	f.IntVar(&f.cfg.AdaptBatch, "stopbatch", 0, "adaptive early stop: decision granularity in samples (0 = default 256)")
	storeDir := f.String("store", "", "content-addressed shard store directory: cache results and checkpoint for resume")
	cpuProfile := f.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := f.String("memprofile", "", "write a heap profile to this file on exit")
	f.Usage = func() {
		f.log.Print("usage: lersweep [flags]\n       lersweep ttest|savings|dsweep|compute [flags]\n\nflags of the PER sweep:")
		f.PrintDefaults()
	}
	if err := f.parse(args); err != nil {
		return err
	}
	text, ok := sweepCodes[*codeName]
	switch {
	case !ok:
		return usagef("unknown code %q (want sc17 or steane)", *codeName)
	case *mode != "nopf" && *mode != "pf" && *mode != "both":
		return usagef("unknown mode %q (want nopf, pf or both)", *mode)
	}
	f.cfg.Code = text.code
	if f.cfg.Engine, err = experiments.ParseEngine(*engineName); err != nil {
		return usageError(err.Error())
	}
	cfg, err := f.sweep()
	if err != nil {
		return err
	}

	var store *sweepstore.Store
	if *storeDir != "" {
		if store, err = sweepstore.Open(*storeDir); err != nil {
			return err
		}
		defer func() {
			if cerr := store.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		//qa:allow errcheck profile file close is best-effort diagnostics
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			pf, err := os.Create(*memProfile)
			if err != nil {
				f.log.Println("lersweep:", err)
				return
			}
			//qa:allow errcheck profile file close is best-effort diagnostics
			defer pf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				f.log.Println("lersweep:", err)
			}
		}()
	}

	// leg runs one configuration, prints its table and, in both mode,
	// writes its CSV with csvSuffix. It runs through the store when there
	// is one; results are bit-identical either way.
	leg := func(withPF bool, label, csvSuffix string) ([]experiments.PointResult, error) {
		c := cfg
		c.WithPauliFrame = withPF
		if withPF {
			c.BaseSeed += 7_777_777
		}
		f.log.Printf("sweep %s (%d points × %d samples, %s errors)...", label, f.points, c.Samples, c.ErrorType)
		var pts []experiments.PointResult
		var err error
		if store == nil {
			pts, err = experiments.RunSweep(c)
		} else if pts, err = sweepstore.RunCached(context.Background(), store, c, nil); err == nil {
			st := store.Stats()
			f.log.Printf("  store: %d shards cached, %d computed", st.ShardHits, st.ShardMisses)
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(&f.out, experiments.Table(pts, fmt.Sprintf("%s, logical %s errors, %s", text.title, c.ErrorType, label)))
		if th := experiments.PseudoThreshold(pts); !math.IsNaN(th) {
			fmt.Fprintf(&f.out, "pseudo-threshold (LER = PER crossing): %.3e%s\n\n", th, text.note)
		} else {
			fmt.Fprintln(&f.out, "pseudo-threshold: no crossing in range")
		}
		if *csvPath != "" {
			path := *csvPath
			if *mode == "both" {
				path = strings.TrimSuffix(path, ".csv") + csvSuffix
			}
			if err := os.WriteFile(path, []byte(experiments.CSV(pts)), 0o644); err != nil {
				return nil, err
			}
		}
		return pts, f.flush(stdout)
	}

	var without, with []experiments.PointResult
	if *mode != "pf" {
		if without, err = leg(false, "without Pauli frame"+text.without, "_nopf.csv"); err != nil {
			return err
		}
	}
	if *mode != "nopf" {
		if with, err = leg(true, "with Pauli frame"+text.with, "_pf.csv"); err != nil {
			return err
		}
	}
	if *mode == "both" {
		fmt.Fprintf(&f.out, "# overlay%s: PER, LER without PF, LER with PF, delta\n", text.overlay)
		for i := range without {
			fmt.Fprintf(&f.out, "%-12.4e %-12.4e %-12.4e %+.2e\n",
				without[i].PER, without[i].MeanLER(), with[i].MeanLER(),
				without[i].MeanLER()-with[i].MeanLER())
		}
	}
	return f.flush(stdout)
}

// cmdTTest regenerates the statistical analysis of thesis §5.3.2 from
// paired sweeps without and with a Pauli frame: the absolute LER
// difference with σmax bands (Figs 5.17/5.18), the coefficient of
// variation of window counts (Figs 5.19/5.20), and the ρ-values of the
// independent and paired t-tests (Figs 5.21–5.24). A consistently
// significant frame effect, which contradicts the thesis, is an error.
func cmdTTest(args []string, stdout, stderr io.Writer) error {
	f := newFlags("lersweep ttest", stderr)
	f.minSamples = 2 // the t-tests need two per configuration
	f.StringVar(&f.rng, "range", "full", "PER range: full, zoom or LO,HI")
	f.IntVar(&f.points, "points", 7, "log-spaced PER points")
	f.IntVar(&f.cfg.Samples, "samples", 5, "repetitions per point per configuration (thesis: 10/20)")
	f.IntVar(&f.cfg.MaxLogicalErrors, "errors", 15, "logical errors per run (thesis: 50)")
	f.IntVar(&f.cfg.MaxWindows, "maxwindows", 250000, "window cap per run")
	f.StringVar(&f.etype, "type", "x", "logical error type: x or z")
	f.Int64Var(&f.cfg.BaseSeed, "seed", 99, "base seed")
	f.IntVar(&f.cfg.Workers, "workers", 0, "Monte-Carlo worker pool size (0 = all CPUs); results are identical for any value")
	if err := f.parse(args); err != nil {
		return err
	}
	cfg, err := f.sweep()
	if err != nil {
		return err
	}

	f.log.Printf("paired sweeps: %d points × %d samples × 2 configurations...", f.points, cfg.Samples)
	pair, err := experiments.RunPairedSweeps(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(&f.out, "# absolute LER difference δPL = PL(no PF) − PL(PF), logical %s errors (Figs 5.17/5.18)\n", cfg.ErrorType)
	fmt.Fprintf(&f.out, "%-12s %-14s %-12s %s\n", "PER", "delta", "sigma_max", "within ±sigma_max?")
	within := 0
	diffs := pair.DiffSeries()
	for _, d := range diffs {
		in := "yes"
		if d.Delta > d.SigmaMax || d.Delta < -d.SigmaMax {
			in = "no"
		} else {
			within++
		}
		fmt.Fprintf(&f.out, "%-12.4e %+-14.4e %-12.4e %s\n", d.PER, d.Delta, d.SigmaMax, in)
	}
	fmt.Fprintf(&f.out, "-> %d/%d points within ±σmax (thesis: nearly all)\n\n", within, len(diffs))

	fmt.Fprintln(&f.out, "# coefficient of variation of window counts (Figs 5.19/5.20; thesis mean ≈13%)")
	fmt.Fprintf(&f.out, "%-12s %-12s %-12s\n", "PER", "cv_noPF", "cv_PF")
	var cvSum float64
	cvs := pair.CVSeries()
	for _, c := range cvs {
		fmt.Fprintf(&f.out, "%-12.4e %-12.4f %-12.4f\n", c.PER, c.CVWithout, c.CVWith)
		cvSum += (c.CVWithout + c.CVWith) / 2
	}
	fmt.Fprintf(&f.out, "-> mean CV: %.1f%%\n\n", 100*cvSum/float64(len(cvs)))

	ts, err := pair.TTestSeries()
	if err != nil {
		return err
	}
	fmt.Fprintln(&f.out, "# t-test ρ-values per PER (Figs 5.21-5.24)")
	fmt.Fprintf(&f.out, "%-12s %-14s %-14s\n", "PER", "independent", "paired")
	for _, p := range ts {
		fmt.Fprintf(&f.out, "%-12.4e %-14.4f %-14.4f\n", p.PER, p.IndependentP, p.PairedPVal)
	}
	fmt.Fprintf(&f.out, "-> mean independent ρ: %.3f (thesis: ≈0.5, the null expectation)\n", experiments.MeanP(ts))
	if experiments.Significant(ts) {
		fmt.Fprintln(&f.out, "-> CONSISTENTLY SIGNIFICANT: the Pauli frame changed the LER (contradicts the thesis)")
		return errors.Join(f.flush(stdout), errors.New("consistently significant Pauli frame effect on the LER"))
	}
	fmt.Fprintln(&f.out, "-> no statistically significant Pauli frame effect on the LER (thesis conclusion reproduced)")
	return f.flush(stdout)
}

// cmdSavings regenerates the savings analysis of thesis §5.3.2: the
// share of gates and time slots the Pauli frame filters during LER runs
// (Figs 5.25/5.26), and the Eq. 5.12 upper bound on the relative LER
// improvement versus code distance (Fig 5.27).
func cmdSavings(args []string, stdout, stderr io.Writer) error {
	f := newFlags("lersweep savings", stderr)
	f.minSamples = 1
	f.IntVar(&f.points, "points", 7, "log-spaced PER points (1e-4..1e-2)")
	f.IntVar(&f.cfg.Samples, "samples", 3, "repetitions per point")
	f.IntVar(&f.cfg.MaxLogicalErrors, "errors", 15, "logical errors per run")
	f.IntVar(&f.cfg.MaxWindows, "maxwindows", 250000, "window cap per run")
	f.Int64Var(&f.cfg.BaseSeed, "seed", 55, "base seed")
	boundOnly := f.Bool("bound", false, "print only the Fig 5.27 upper-bound curve")
	tsESM := f.Int("tsesm", 8, "time slots per ESM round for the bound")
	if err := f.parse(args); err != nil {
		return err
	}
	switch {
	case *tsESM < 1:
		// Eq. 5.12 is undefined below one slot per ESM round.
		return usagef("-tsesm must be >= 1, got %d", *tsESM)
	case *tsESM > (math.MaxInt-1)/2:
		// The d = 3 window's 2·tsESM+1 slots must fit an int.
		return usagef("-tsesm must be <= %d, got %d", (math.MaxInt-1)/2, *tsESM)
	}
	f.cfg.WithPauliFrame = true
	cfg, err := f.sweep()
	if err != nil {
		return err
	}

	if !*boundOnly {
		f.log.Println("running PF sweeps for savings counters...")
		pts, err := experiments.RunSweep(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(&f.out, "# gates and time slots saved by the Pauli frame (Figs 5.25/5.26)")
		fmt.Fprintf(&f.out, "%-12s %-16s %-16s\n", "PER", "gates_saved_%", "slots_saved_%")
		for _, p := range pts {
			fmt.Fprintf(&f.out, "%-12.4e %-16.4f %-16.4f\n",
				p.PER, 100*stats.Mean(p.GatesSaved), 100*stats.Mean(p.SlotsSaved))
		}
		ts := experiments.WindowTimeSlots(3, *tsESM, true)
		fmt.Fprintf(&f.out, "-> ceiling: 1 correction slot per %d-slot window = %.1f%% of slots (thesis §5.3.2)\n\n",
			ts, 100/float64(ts))
	}

	fmt.Fprintf(&f.out, "# upper bound on relative LER improvement by a Pauli frame, tsESM=%d (Eq. 5.12, Fig 5.27)\n", *tsESM)
	fmt.Fprintf(&f.out, "%-10s %-12s\n", "distance", "bound_%")
	for d := 3; d <= 11; d++ {
		b := experiments.UpperBoundRelativeImprovement(d, *tsESM)
		fmt.Fprintf(&f.out, "%-10d %-12.3f %s\n", d, 100*b, strings.Repeat("#", int(1000*b)))
	}
	fmt.Fprintln(&f.out, "-> the bound converges to 0 with distance: no LER benefit from a Pauli frame at any scale")
	return f.flush(stdout)
}

// cmdDSweep runs the distance-scaling study the thesis lists as future
// work (Chapter 6): LER and Pauli-frame savings of the distance-d
// surface code plane with its matching decoder, next to the Eq. 5.12
// ceiling (Fig 5.27), which shrinks with distance.
func cmdDSweep(args []string, stdout, stderr io.Writer) error {
	f := newFlags("lersweep dsweep", stderr)
	distances := f.String("d", "3,5", "comma-separated odd distances")
	f.Float64Var(&f.per, "per", 5e-4, "physical error rate")
	f.IntVar(&f.cfg.MaxLogicalErrors, "errors", 10, "logical errors per run")
	f.IntVar(&f.cfg.MaxWindows, "maxwindows", 400000, "window cap")
	pf := f.Bool("pf", true, "include the Pauli frame (for the savings columns)")
	f.Int64Var(&f.cfg.BaseSeed, "seed", 33, "base seed")
	f.IntVar(&f.cfg.Workers, "workers", 0, "worker pool size, one run per distance (0 = all CPUs); results are identical for any value")
	if err := f.parse(args); err != nil {
		return err
	}
	var cfgs []experiments.LERConfig
	for _, tok := range strings.Split(*distances, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return usagef("-d: %v", err)
		}
		if d < 3 || d%2 == 0 {
			return usagef("-d distances must be odd and >= 3, got %d", d)
		}
		cfg := f.ler(experiments.CodeSurface, *pf, experiments.ShardSeed(f.cfg.BaseSeed, d, 0))
		cfg.Distance = d
		cfgs = append(cfgs, cfg)
	}

	fmt.Fprintf(&f.out, "distance scaling at PER=%g (windows are (d−1) ESM rounds long)\n\n", f.per)
	results, err := experiments.RunLERs(cfgs, f.cfg.Workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(&f.out, "%-4s %-10s %-12s %-14s %-14s %-12s %-12s\n",
		"d", "windows", "LER", "LER/round", "slots_saved%", "bound_%", "gates_saved%")
	for i, r := range results {
		d := cfgs[i].Distance
		bound := experiments.UpperBoundRelativeImprovement(d, 8)
		fmt.Fprintf(&f.out, "%-4d %-10d %-12.3e %-14.3e %-14.4f %-12.4f %-12.4f\n",
			d, r.Windows, r.LER, r.LER/float64(d-1),
			100*r.SlotsSavedFrac(), 100*bound, 100*r.GatesSavedFrac())
	}
	fmt.Fprintln(&f.out, "\nthe slots-saved ceiling follows Eq. 5.12: 1/((d−1)·8+1) — the Pauli frame's")
	fmt.Fprintln(&f.out, "possible LER benefit vanishes with distance, while the LER itself improves.")
	return f.flush(stdout)
}

// cmdCompute runs the fault-tolerant computation of thesis Fig 2.6, QEC
// windows interleaved with logical CNOTs on two ninja stars, without and
// with a Pauli frame: the per-window LER of an active computation, next
// to that of one idling qubit.
func cmdCompute(args []string, stdout, stderr io.Writer) error {
	f := newFlags("lersweep compute", stderr)
	f.Float64Var(&f.per, "per", 1e-3, "physical error rate")
	f.IntVar(&f.cfg.MaxLogicalErrors, "errors", 15, "logical errors per run")
	f.IntVar(&f.cfg.MaxWindows, "maxwindows", 200000, "window cap")
	f.Int64Var(&f.cfg.BaseSeed, "seed", 77, "base seed")
	f.IntVar(&f.cfg.Workers, "workers", 0, "worker pool size, one run per configuration (0 = all CPUs); results are identical for any value")
	if err := f.parse(args); err != nil {
		return err
	}

	fmt.Fprintf(&f.out, "two-star computation (windows + CNOT_L cycles) at PER=%g\n\n", f.per)
	fmt.Fprintf(&f.out, "%-12s %-10s %-12s %-14s %-14s\n",
		"config", "windows", "LER", "corr_gates", "slots_saved%")
	var cfgs [2]experiments.LERConfig
	for i := range cfgs {
		cfgs[i] = f.ler(experiments.CodeComputation, i == 1, experiments.ShardSeed(f.cfg.BaseSeed, i, 0))
	}
	results, err := experiments.RunLERs(cfgs[:], f.cfg.Workers)
	if err != nil {
		return err
	}
	names := [2]string{"no frame", "pauli frame"}
	for i, r := range results {
		fmt.Fprintf(&f.out, "%-12s %-10d %-12.3e %-14d %-14.3f\n",
			names[i], r.Windows, r.LER, r.CorrectionGates, 100*r.SlotsSavedFrac())
	}

	idle, err := experiments.RunLER(f.ler(experiments.CodeSC17, false, f.cfg.BaseSeed+9))
	if err != nil {
		return err
	}
	fmt.Fprintf(&f.out, "\nidling single qubit for reference: LER %.3e\n", idle.LER)
	fmt.Fprintf(&f.out, "computation / idle LER ratio: %.1f (transversal CNOT_L adds error surface)\n",
		results[0].LER/idle.LER)
	fmt.Fprintln(&f.out, "the Pauli frame stays LER-neutral during computation, as in the idling study")
	return f.flush(stdout)
}
