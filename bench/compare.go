package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runSet is the untraced runs of one workload found in a result file.
type runSet struct {
	values    map[string][]float64 // end-to-end metric -> one value per run
	attempted int
	failed    int
}

func (s *runSet) failedFrac() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// readRuns loads a result file: a stream of result records, one per
// invocation. Traced runs carry no end-to-end metrics and are skipped.
func readRuns(path string) (map[string]*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets := make(map[string]*runSet)
	for dec := json.NewDecoder(f); ; {
		var r result
		if err := dec.Decode(&r); err != nil {
			if errors.Is(err, io.EOF) {
				return sets, nil
			}
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		s := sets[r.Workload]
		if s == nil {
			s = &runSet{values: make(map[string][]float64)}
			sets[r.Workload] = s
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
	}
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them; v needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median; known reports whether the sample is large enough to tell.
func spread(v []float64) (share float64, known bool) {
	if len(v) < 4 {
		return 0, false
	}
	q1, q3 := quartiles(v)
	if m := math.Abs(median(v)); m != 0 {
		return (q3 - q1) / m, true
	}
	return 0, true
}

// verdict judges one metric of one workload by how much the new
// median worsened against the old, as a share of it. A spread wider
// than the bound leaves the metric unresolved unless every new run
// lies on one side of every old run.
func verdict(m metricDef, old, new []float64) string {
	if m.Better == "higher" { // judge the negated values: lower is better below
		old, new = negated(old), negated(new)
	}
	worsening := 0.0
	if mo := median(old); mo != 0 {
		worsening = (median(new) - mo) / math.Abs(mo)
	}
	so, knownOld := spread(old)
	sn, knownNew := spread(new)
	oldLo, oldHi := minMax(old)
	newLo, newHi := minMax(new)
	switch {
	case !knownOld || !knownNew:
		// Too few runs to know the spread: only the bound decides.
		if worsening < -m.Bound {
			return "better"
		}
	case max(so, sn) > m.Bound:
		if newLo > oldHi && worsening > m.Bound {
			return "worse"
		}
		if newHi < oldLo {
			return "better"
		}
		return "unresolved"
	case -worsening > so:
		return "better"
	}
	if worsening > m.Bound {
		return "worse"
	}
	return "same"
}

func negated(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = -x
	}
	return out
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// compareFiles prints, per workload and end-to-end metric, the old
// and new medians, their ratio with its base, and the verdict. It
// returns an error when any metric is worse or more simulations fail.
func compareFiles(out io.Writer, oldPath, newPath string) error {
	oldSets, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	newSets, err := readRuns(newPath)
	if err != nil {
		return err
	}
	regressions := 0
	fmt.Fprintf(out, "%-20s %-18s %5s %14s %14s  %-28s %s\n", "workload", "metric", "runs", "old", "new", "new/old (base)", "verdict")
	for _, w := range workloads {
		o, n := oldSets[w.name], newSets[w.name]
		if o == nil || n == nil {
			continue
		}
		for _, m := range endToEnd {
			ov, nv := o.values[m.Name], n.values[m.Name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v := verdict(m, ov, nv)
			if v == "worse" {
				regressions++
			}
			mo, mn := median(ov), median(nv)
			ratio := "n/a"
			if mo != 0 {
				ratio = fmt.Sprintf("%.4f (%.4g %s)", mn/mo, mo, m.Unit)
			}
			fmt.Fprintf(out, "%-20s %-18s %2d/%-2d %14.4f %14.4f  %-28s %s\n", w.name, m.Name, len(ov), len(nv), mo, mn, ratio, v)
		}
		v := "same"
		if n.failedFrac() > o.failedFrac() {
			v = "worse"
			regressions++
		}
		fmt.Fprintf(out, "%-20s %-18s %5s %14.6f %14.6f  %-28s %s\n", w.name, "failed_frac", "", o.failedFrac(), n.failedFrac(), "any rise fails", v)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) beyond the bounds in BENCHMARK.json", regressions)
	}
	return nil
}
