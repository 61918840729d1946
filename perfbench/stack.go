package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
	"repro/internal/surface"
)

// pairedSeedOffset is the base-seed offset RunPairedSweeps gives the
// PF-on sweep.
const pairedSeedOffset = 7_777_777

// stackPairedSweep is one stack-paired operation (thesis Fig 5.11 and
// its t-test): a PF-off and a PF-on sweep of the QPDO oracle stack over
// 4 PERs, 4 runs per point, each run 250 windows long. The logical-error
// cap is out of reach, so every operation simulates the same 8000
// windows whatever the seed.
func stackPairedSweep(seed int64, k int) experiments.SweepConfig {
	return experiments.SweepConfig{
		Engine:           experiments.EngineStack,
		PERs:             []float64{1e-3, 2e-3, 4e-3, 8e-3},
		Samples:          4,
		ErrorType:        experiments.LogicalX,
		MaxLogicalErrors: 1000,
		MaxWindows:       250,
		BaseSeed:         deriveSeed(seed, k),
		Workers:          workers,
	}
}

func stackPairedSpec(seed int64) any {
	return experiments.SpecOf(stackPairedSweep(seed, 0)).Normalized()
}

// pairedSpecs returns the PF-off and PF-on specs RunPairedSweeps runs
// for cfg.
func pairedSpecs(cfg experiments.SweepConfig) [2]experiments.Spec {
	off := cfg
	off.WithPauliFrame = false
	on := cfg
	on.WithPauliFrame = true
	on.BaseSeed += pairedSeedOffset
	return [2]experiments.Spec{experiments.SpecOf(off).Normalized(), experiments.SpecOf(on).Normalized()}
}

type stackSession struct {
	cfgs []experiments.SweepConfig
}

func openStackPaired(seed int64) (session, error) {
	s := &stackSession{}
	for k := 0; k < opsPerCycle; k++ {
		s.cfgs = append(s.cfgs, stackPairedSweep(seed, k))
	}
	warm := stackPairedSweep(warmSeed, -1)
	warm.Samples = 2
	if _, err := experiments.RunPairedSweeps(warm); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return s, nil
}

func (s *stackSession) canonical() int                { return opsPerCycle }
func (s *stackSession) close() error                  { return nil }
func (s *stackSession) verify([]opOut) ([]int, error) { return nil, nil }

func (s *stackSession) op(i int) (opOut, error) {
	k := i % len(s.cfgs)
	t0 := time.Now()
	ps, err := experiments.RunPairedSweeps(s.cfgs[k])
	latency := time.Since(t0)
	if err != nil {
		return opOut{}, err
	}
	_, sum, err := sumJSON(ps)
	if err != nil {
		return opOut{}, err
	}
	return opOut{key: strconv.Itoa(k), sum: sum, windows: totalWindows(ps.Without) + totalWindows(ps.With), latency: latency}, nil
}

// traced runs, per pass and per canonical paired sweep: the untraced
// RunPairedSweeps (reference fold, runtime counters, overhead baseline),
// both sweeps through the hooked RunSpec (pipeline metrics and the PF
// host-cost ratio), and the replica driver that runs the Fig 5.8 stack
// with timing shims between its layers. Both other folds must match the
// reference byte for byte.
func (s *stackSession) traced(t *tracer, deadline time.Time) (map[string]float64, error) {
	var pt passTotals
	var st stackTotals
	var pfTime, offTime [2]float64 // seconds, windows
	for pt.passes == 0 || time.Now().Before(deadline) {
		for k, cfg := range s.cfgs {
			var ref experiments.PairedSweeps
			t0 := time.Now()
			err := pt.mem.around(func() error {
				var err error
				ref, err = experiments.RunPairedSweeps(cfg)
				return err
			})
			pt.refTime += time.Since(t0)
			if err != nil {
				return nil, err
			}
			pt.refWins += totalWindows(ref.Without) + totalWindows(ref.With)
			_, want, err := sumJSON(ref)
			if err != nil {
				return nil, err
			}

			specs := pairedSpecs(cfg)
			var hooked experiments.PairedSweeps
			for j, spec := range specs {
				h0 := time.Now()
				pts, err := hookedRunSpec(t, spec, &pt)
				if err != nil {
					return nil, err
				}
				acc := &offTime
				if j == 1 {
					acc = &pfTime
					hooked.With = pts
				} else {
					hooked.Without = pts
				}
				acc[0] += time.Since(h0).Seconds()
				acc[1] += float64(totalWindows(pts))
			}
			if _, got, err := sumJSON(hooked); err != nil || got != want {
				return nil, fmt.Errorf("paired sweep %d: hooked RunSpec fold differs from the untraced run (%v)", k, err)
			}

			t1 := time.Now()
			var rep experiments.PairedSweeps
			if rep.Without, err = stackReplica(t, specs[0], &st); err == nil {
				rep.With, err = stackReplica(t, specs[1], &st)
			}
			pt.repTime += time.Since(t1)
			if err != nil {
				return nil, err
			}
			if _, got, err := sumJSON(rep); err != nil || got != want {
				return nil, fmt.Errorf("paired sweep %d: traced replica fold differs from the untraced run (%v)", k, err)
			}
		}
		pt.passes++
	}
	m := map[string]float64{}
	pt.experimentsMetrics(m)
	n := float64(pt.passes)
	_, winSelf := t.total("surface.window")
	_, esmSelf := t.total("surface.esm_round")
	probe, _ := t.total("surface.probe")
	_, pfSelf := t.total("layers.pauliframe")
	_, errSelf := t.total("layers.error")
	_, cntSelf := t.total("layers.counter")
	chpTotal, _ := t.total("chp")
	m["surface.window_self_s"] = winSelf / n
	m["surface.esm_round_self_s"] = esmSelf / n
	m["surface.probe_s"] = probe / n
	m["layers.pauliframe.self_s"] = pfSelf / n
	m["layers.error.self_s"] = errSelf / n
	m["layers.counter.self_s"] = cntSelf / n
	m["chp.execute_s"] = chpTotal / n
	if st.opsIssued > 0 {
		m["layers.pauliframe.gates_filtered_frac"] = float64(st.opsIssued-st.opsExecuted) / float64(st.opsIssued)
	}
	m["layers.error.injected"] = float64(st.injected) / n
	if st.chpOps > 0 {
		m["chp.ns_per_op"] = chpTotal * 1e9 / float64(st.chpOps)
	}
	if offTime[1] > 0 && pfTime[1] > 0 {
		m["stack.pf_host_cost_ratio"] = (pfTime[0] / pfTime[1]) / (offTime[0] / offTime[1])
	}
	return m, nil
}

// stackTotals counts what the replica stacks saw.
type stackTotals struct {
	mu                     sync.Mutex
	opsIssued, opsExecuted int64 // PF-on runs only
	injected               int64
	chpOps                 int64
}

// timedCore is a timing shim between two layers: every Add and Execute
// into the layer below runs under a span named after that layer.
type timedCore struct {
	qpdo.Forwarder
	name string
	l    *lane
	ops  int64
}

func (c *timedCore) Add(circ *circuit.Circuit) error {
	c.l.begin(c.name)
	err := c.Next.Add(circ)
	c.l.end()
	c.ops += int64(circ.NumOps())
	return err
}

func (c *timedCore) Execute() (*qpdo.Result, error) {
	c.l.begin(c.name)
	r, err := c.Next.Execute()
	c.l.end()
	return r, err
}

// tracedStack is the Fig 5.8 test stack with a shim above every layer:
// ninja star → counter → [pauli frame] → counter → error → chp.
type tracedStack struct {
	star                   *surface.NinjaStarLayer
	counterTop, counterMid *layers.CounterLayer
	pf                     *layers.PauliFrameLayer
	errl                   *layers.ErrorLayer
	chp                    *layers.ChpCore
	chpShim                *timedCore
}

// buildTracedStack assembles the stack with the RNG derivation of the
// harness: one master RNG seeded by the run seed, its first draw seeding
// the CHP core and its second the error layer.
func buildTracedStack(l *lane, spec experiments.Spec, per float64, seed int64) (*tracedStack, error) {
	shim := func(name string, next qpdo.Core) *timedCore {
		return &timedCore{Forwarder: qpdo.Forwarder{Next: next}, name: name, l: l}
	}
	rng := rand.New(rand.NewSource(seed))
	s := &tracedStack{}
	s.chp = layers.NewChpCore(rand.New(rand.NewSource(rng.Int63())))
	s.chpShim = shim("chp", s.chp)
	s.errl = layers.NewErrorLayerModel(s.chpShim, layers.Depolarizing(per), rand.New(rand.NewSource(rng.Int63())))
	s.counterMid = layers.NewCounterLayer(shim("layers.error", s.errl))
	var below qpdo.Core = shim("layers.counter", s.counterMid)
	if spec.WithPauliFrame {
		s.pf = layers.NewPauliFrameLayer(below)
		below = shim("layers.pauliframe", s.pf)
	}
	s.counterTop = layers.NewCounterLayer(below)
	s.star = surface.NewNinjaStarLayer(shim("layers.counter", s.counterTop), surface.Config{
		Ancilla:    surface.AncillaDedicated,
		InitRounds: 3,
	})
	if err := s.star.CreateQubits(1); err != nil {
		return nil, err
	}
	return s, nil
}

// reset restores a built stack for the next run exactly as the harness
// pool does, so a reused stack is bit-identical to a fresh one.
func (s *tracedStack) reset(per float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s.chp.Reset(rand.New(rand.NewSource(rng.Int63())))
	s.errl.Reconfigure(layers.Depolarizing(per), rand.New(rand.NewSource(rng.Int63())))
	s.counterMid.ResetStats()
	s.counterTop.ResetStats()
	if s.pf != nil {
		s.pf.Reset()
	}
}

// stackReplica is the traced stand-in for RunSpec on the stack engine:
// two goroutines, one reused stack each, every shard one windows-protocol
// run (thesis Listing 5.7), folded with experiments.FoldShards.
func stackReplica(t *tracer, spec experiments.Spec, tot *stackTotals) ([]experiments.PointResult, error) {
	n := spec.NumShards()
	runs := make([][]experiments.LERResult, n)
	errs := make([]error, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			l := t.lane(0)
			defer l.merge()
			var s *tracedStack
			var local stackTotals
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				sh := spec.Shard(i)
				per := spec.PERs[sh.Point]
				if s == nil {
					var err error
					if s, err = buildTracedStack(l, spec, per, sh.Seed); err != nil {
						errs[i] = err
						break
					}
				} else {
					s.reset(per, sh.Seed)
				}
				r, err := runStackLER(l, s, spec)
				if err != nil {
					errs[i] = err
					break
				}
				runs[i] = []experiments.LERResult{r}
				if spec.WithPauliFrame {
					local.opsIssued += int64(r.OpsIssued)
					local.opsExecuted += int64(r.OpsExecuted)
				}
				local.injected += int64(r.InjectedErrors)
			}
			if s != nil {
				local.chpOps = s.chpShim.ops
			}
			tot.mu.Lock()
			tot.opsIssued += local.opsIssued
			tot.opsExecuted += local.opsExecuted
			tot.injected += local.injected
			tot.chpOps += local.chpOps
			tot.mu.Unlock()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return experiments.FoldShards(spec, runs), nil
}

// runStackLER is the windows protocol of thesis Listing 5.7 on a traced
// stack: noiseless initialization, then QEC windows, each followed by a
// bypassed diagnostic ESM round and, on a clean syndrome, a logical
// probe. Spans cover the calls into the surface layer.
func runStackLER(l *lane, s *tracedStack, spec experiments.Spec) (experiments.LERResult, error) {
	init := circuit.New().Add(gates.Prep, 0)
	probe := s.star.ProbeZL
	if spec.ErrorType == "z" {
		init.Add(gates.H, 0)
		probe = s.star.ProbeXL
	}
	if err := qpdo.WithBypass(s.star, func() error {
		_, err := qpdo.Run(s.star, init)
		return err
	}); err != nil {
		return experiments.LERResult{}, err
	}
	expected := 0
	var res experiments.LERResult
	for res.LogicalErrors < spec.MaxLogicalErrors && res.Windows < spec.MaxWindows {
		l.begin("surface.window")
		w, err := s.star.RunWindow(0)
		l.end()
		if err != nil {
			return res, err
		}
		res.CorrectionGates += w.CorrectionGates
		res.CorrectionSlots += w.CorrectionSlots
		res.Windows++
		if err := qpdo.WithBypass(s.star, func() error {
			l.begin("surface.esm_round")
			round, err := s.star.RunESMRound(0)
			l.end()
			if err != nil {
				return err
			}
			if round.A != 0 || round.B != 0 {
				return nil
			}
			l.begin("surface.probe")
			out, err := probe(0)
			l.end()
			if err != nil {
				return err
			}
			if out != expected {
				res.LogicalErrors++
				expected = out
			}
			return nil
		}); err != nil {
			return res, err
		}
	}
	res.OpsIssued = s.counterTop.Stats.Ops
	res.SlotsIssued = s.counterTop.Stats.Slots
	res.OpsExecuted = s.counterMid.Stats.Ops
	res.SlotsExecuted = s.counterMid.Stats.Slots
	res.InjectedErrors = s.errl.Stats.Total()
	if res.Windows > 0 {
		res.LER = float64(res.LogicalErrors) / float64(res.Windows)
	}
	return res, nil
}
