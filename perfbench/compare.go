package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchDef is the part of BENCHMARK.json the reports read.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchDef() (benchDef, error) {
	const path = "BENCHMARK.json"
	var d benchDef
	blob, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(blob, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// record is one run as -steady -out writes it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// runSteady runs each selected workload n times, seeds 1..n, each in a
// fresh process, and prints every end-to-end metric's run-to-run spread
// (interquartile distance over median) next to its bound.
func runSteady(only string, n, seconds int, outPath string) error {
	def, err := readBenchDef()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var out *os.File
	if outPath != "" {
		if out, err = os.OpenFile(outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return err
		}
		//qa:allow errcheck the success path checks Close; closing twice is harmless
		defer out.Close()
	}
	for _, wl := range workloads {
		if only != "" && wl.name != only {
			continue
		}
		var recs []record
		for r := 1; r <= n; r++ {
			cmd := exec.Command(self, "--workload", wl.name, "--seed", strconv.Itoa(r),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, r, err)
			}
			res, err := lastResult(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, r, err)
			}
			rec := record{Workload: wl.name, Seed: int64(r), Result: res}
			recs = append(recs, rec)
			if out != nil {
				line, err := json.Marshal(rec)
				if err != nil {
					return err
				}
				if _, err := fmt.Fprintf(out, "%s\n", line); err != nil {
					return err
				}
			}
			fmt.Printf("%s seed %d: correct=%v failed=%d/%d\n", wl.name, r, res.Correct, res.Failed, res.Attempted)
		}
		fmt.Printf("\n%s: %d runs\n%-16s %12s %12s %12s %8s %8s\n", wl.name, len(recs),
			"metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range def.EndToEnd {
			vals := metricValues(recs, m.Name)
			q1, q3 := quartiles(vals)
			flag := ""
			if m.Name != "setup_s" && spread(vals) > m.Bound/3 {
				flag = "  above a third of its bound"
			}
			fmt.Printf("%-16s %12.5g %12.5g %12.5g %8.4f %8.3f%s\n", m.Name, q1, median(vals), q3, spread(vals), m.Bound, flag)
		}
	}
	if out != nil {
		return out.Close()
	}
	return nil
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(stdout []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}

func metricValues(recs []record, name string) []float64 {
	var vals []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[name]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

func readRecords(path string) (map[string][]record, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	//qa:allow errcheck read-only file
	defer f.Close()
	recs := map[string][]record{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if _, seen := recs[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		recs[r.Workload] = append(recs[r.Workload], r)
	}
	return recs, order, sc.Err()
}

// verdict applies the gain rule of the benchmark's method to one
// workload × metric: the change must win at least nine tenths of the
// pairs (ties count for neither side) and its median must differ from
// the parent's by more than the parent's interquartile distance. Short
// of a gain, a parent spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run; a median
// worse than the parent's by more than the bound is a regression.
func verdict(parent, change []float64, higherBetter bool, bound float64) (wins float64, v string) {
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	pairs := min(len(parent), len(change))
	won := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			won++
		}
	}
	if pairs > 0 {
		wins = float64(won) / float64(pairs)
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if pairs > 0 && 10*won >= 9*pairs && better(mc, mp) && abs(mc-mp) > q3-q1 {
		return wins, "gain"
	}
	allBetter := len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if (q3-q1)/mp > bound && !allBetter {
		return wins, "unresolved"
	}
	worse := mc - mp
	if higherBetter {
		worse = mp - mc
	}
	if worse > bound*abs(mp) {
		return wins, "regression"
	}
	return wins, "no-change"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runCompare prints, per workload and end-to-end metric, both sides'
// median and quartiles, the share of pairs the change wins, and the
// verdict. Runs pair up in file order within a workload.
func runCompare(parentPath, changePath string) error {
	def, err := readBenchDef()
	if err != nil {
		return err
	}
	parent, order, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, _, err := readRecords(changePath)
	if err != nil {
		return err
	}
	for _, wl := range order {
		p, c := parent[wl], change[wl]
		if len(c) == 0 {
			fmt.Printf("%s: no change runs\n", wl)
			continue
		}
		fmt.Printf("\n%s: %d parent runs, %d change runs\n", wl, len(p), len(c))
		fmt.Printf("%-16s %30s %30s %6s %s\n", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "verdict")
		for _, m := range def.EndToEnd {
			pv, cv := metricValues(p, m.Name), metricValues(c, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			wins, v := verdict(pv, cv, m.Better == "higher", m.Bound)
			fmt.Printf("%-16s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %6.2f %s\n",
				m.Name, pq1, median(pv), pq3, cq1, median(cv), cq3, wins, v)
		}
	}
	return nil
}
