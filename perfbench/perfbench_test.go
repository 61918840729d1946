package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/framesim"
)

func TestPercentileKeepsTenSamplesBeyondP95(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	v, beyond := percentile(xs, 0.95)
	if v != 190 || beyond != 10 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190 with 10", v, beyond)
	}
	v, beyond = percentile(xs, 0.5)
	if v != 100 || beyond != 100 {
		t.Errorf("p50 of 1..200 = %v with %d beyond, want 100 with 100", v, beyond)
	}
	if v, beyond = percentile(xs, 1); v != 200 || beyond != 0 {
		t.Errorf("p100 = %v with %d beyond, want 200 with 0", v, beyond)
	}
	if _, beyond = percentile(xs[:100], 0.95); beyond >= 10 {
		t.Errorf("p95 of 100 samples has %d beyond, want fewer than 10", beyond)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50}, // overlaps the first
		{Start: 60, End: 70},
		{Start: 65, End: 68},  // inside the third
		{Start: 90, End: 120}, // sticks out of the parent
		{Start: -5, End: 0},   // entirely before it
	}
	// Covered: [10,50] + [60,70] + [90,100] = 60.
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestLaneSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer("test")
	l := tr.lane(0)
	l.begin("outer")
	for i := 0; i < 3; i++ {
		l.begin("inner")
		l.end()
	}
	l.end()
	l.merge()
	outer, outerSelf := tr.total("outer")
	inner, innerSelf := tr.total("inner")
	if inner != innerSelf {
		t.Errorf("leaf self time %v != its total %v", innerSelf, inner)
	}
	if math.Abs(outerSelf-(outer-inner)) > 1e-9 {
		t.Errorf("outer self %v, want total %v minus children %v", outerSelf, outer, inner)
	}
}

func smallFrameSpec(engine string) experiments.Spec {
	return experiments.Spec{
		Engine:     engine,
		PERs:       []float64{2e-3, 8e-3},
		Samples:    300,
		ErrorType:  "x",
		MaxWindows: 60,
		Lanes:      2,
		BaseSeed:   deriveSeed(3, 0),
	}.Normalized()
}

func TestDigestStableAcrossWorkerCounts(t *testing.T) {
	spec := smallFrameSpec(experiments.EngineNameFrameSim)
	var want [32]byte
	for i, w := range []int{1, 2, 3} {
		pts, err := experiments.RunSpec(context.Background(), spec, experiments.RunOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		_, sum, err := sumJSON(pts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = sum
		} else if sum != want {
			t.Errorf("digest with %d workers differs from 1 worker", w)
		}
	}
}

func TestReplicaFoldsMatchRunSpec(t *testing.T) {
	check := func(name string, spec experiments.Spec, replica func(*tracer) ([]experiments.PointResult, error)) {
		t.Helper()
		ref, err := experiments.RunSpec(context.Background(), spec, experiments.RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := replica(newTracer(name))
		if err != nil {
			t.Fatal(err)
		}
		_, a, _ := sumJSON(ref)
		_, b, _ := sumJSON(got)
		if a != b {
			t.Errorf("%s: replica fold differs from RunSpec", name)
		}
	}
	for _, c := range []struct{ engine, prefix string }{
		{experiments.EngineNameFrameSim, "framesim"},
		{experiments.EngineNameSparse, "framesim.sparse"},
	} {
		spec := smallFrameSpec(c.engine)
		s := &frameSession{prefix: c.prefix}
		check(c.engine, spec, func(tr *tracer) ([]experiments.PointResult, error) {
			return s.replica(tr, spec, &laneTotals{})
		})
	}
	for _, pf := range []bool{false, true} {
		cfg := stackPairedSweep(5, 0)
		cfg.Samples = 3
		cfg.MaxWindows = 40
		cfg.WithPauliFrame = pf
		spec := experiments.SpecOf(cfg).Normalized()
		check("stack", spec, func(tr *tracer) ([]experiments.PointResult, error) {
			return stackReplica(tr, spec, &stackTotals{})
		})
	}
}

func TestVerdict(t *testing.T) {
	around := func(center float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = center + float64(i%5) - 2
		}
		return xs
	}
	cases := []struct {
		name           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"faster latency", around(100), around(80), false, "gain"},
		{"higher throughput", around(100), around(120), true, "gain"},
		{"same", around(100), around(100), false, "no-change"},
		{"within bound", around(100), around(104), false, "no-change"},
		{"slower", around(100), around(150), false, "regression"},
		{"noisy parent", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, around(101), false, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.parent, c.change, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBenchmarkDefinitionMatches keeps BENCHMARK.json and the metric and
// workload tables of the driver in step.
func TestBenchmarkDefinitionMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the driver %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the driver %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}

// TestEveryLayerHasAHome checks that every per-layer metric is either
// shared by all workloads or owned by a workload that loads its layer.
func TestEveryLayerHasAHome(t *testing.T) {
	shared := []string{"experiments.", "runtime.", "trace."}
	for _, m := range perLayer {
		home := homeOf(m.name)
		if home == "" {
			ok := false
			for _, p := range shared {
				ok = ok || strings.HasPrefix(m.name, p)
			}
			if !ok {
				t.Errorf("%s: no workload loads its layer", m.name)
			}
			continue
		}
		if _, ok := findWorkload(home); !ok {
			t.Errorf("%s: home %q is not a workload", m.name, home)
		}
	}
	if got := homeOf("framesim.sparse.batch_s"); got != "sparse-lowper" {
		t.Errorf("framesim.sparse.batch_s belongs to %q, want sparse-lowper", got)
	}
}

func TestLaneUse(t *testing.T) {
	rs := make([]framesim.ShotResult, 128)
	for i := range rs {
		rs[i].Windows = 10
		if i >= 64 {
			rs[i].Windows = 5
		}
	}
	rs[3].Windows = 20
	// Useful: 63·10 + 20 + 64·5 = 970 shot-windows.
	if u, c := laneUse(rs, 2, false); u != 970 || c != 64*2*20 {
		t.Errorf("dense lane use = %d/%d, want 970/%d", u, c, 64*2*20)
	}
	if u, c := laneUse(rs, 2, true); u != 970 || c != 64*20+64*5 {
		t.Errorf("sparse lane use = %d/%d, want 970/%d", u, c, 64*20+64*5)
	}
}
