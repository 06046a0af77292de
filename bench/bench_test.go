package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	checked, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checked, describeJSON()) {
		t.Fatal("BENCHMARK.json differs from the registry; regenerate it with: go run ./bench -describe > BENCHMARK.json")
	}
}

func TestNamesAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not well formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			check(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is not well formed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better is %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// One simulation of each workload at seed 1 must reproduce the pinned
// invariants; the fan's drive digest must equal its sequential
// reference's.
func TestSeedOneReproducesPinnedInvariants(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		h := &harness{w: w, seed: 1, cfg: w.generate(1)}
		ref, _, err := h.oneSim(true, false, nil)
		if err != nil {
			t.Fatalf("%s: reference run: %v", w.name, err)
		}
		want := w.pinned
		want.Digest = ref.Digest
		if ref != want {
			t.Errorf("%s: reference run gave %+v, pinned %+v", w.name, ref, want)
		}
		if !w.fan {
			continue
		}
		if ref.Digest == 0 {
			t.Errorf("%s: reference run produced no drive digest", w.name)
		}
		if _, _, err := h.oneSim(false, false, &want); err != nil {
			t.Errorf("%s: speculative run against the sequential reference: %v", w.name, err)
		}
	}
}

func TestSeedsKeepDriveCounts(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.name == "remote_word" {
			continue // same generator as local_word; half a second a sim
		}
		h := &harness{w: w, seed: 2, cfg: w.generate(2)}
		got, _, err := h.oneSim(true, false, nil)
		if err != nil {
			t.Fatalf("%s seed 2: %v", w.name, err)
		}
		if got.Drives != w.pinned.Drives {
			t.Errorf("%s seed 2: %d drives, seed 1 has %d", w.name, got.Drives, w.pinned.Drives)
		}
		if got.VirtNS == w.pinned.VirtNS && !w.fan {
			t.Errorf("%s seed 2: virtual time equals seed 1's, inputs were not perturbed", w.name)
		}
	}
}

func TestMissedInvariantCountsAsFailure(t *testing.T) {
	w := findWorkload("local_word")
	h := &harness{w: w, seed: 1, cfg: w.generate(1), want: w.pinned}
	h.want.Drives++
	p, _ := h.measure(time.Millisecond, false)
	if p.attempted == 0 || p.failed != p.attempted || p.samples() != 0 {
		t.Fatalf("wrong invariant: attempted %d, failed %d, samples %d; want every sim failed", p.attempted, p.failed, p.samples())
	}
	h.want = w.pinned
	p, _ = h.measure(time.Millisecond, false)
	if p.failed != 0 || p.samples() != p.attempted {
		t.Fatalf("right invariant: attempted %d, failed %d, samples %d", p.attempted, p.failed, p.samples())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(q3-31) > 1e-12 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestVerdicts(t *testing.T) {
	wall := metricDef{Name: "sim_wall_ms_p50", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	for _, c := range []struct {
		name     string
		old, new []float64
		want     string
	}{
		{"unchanged", steady, steady, "same"},
		{"slower than the bound", steady, scale(steady, 1.2), "worse"},
		{"slower within the bound", steady, scale(steady, 1.05), "same"},
		{"faster than the spread", steady, scale(steady, 0.9), "better"},
		{"spread wider than the bound", noisy, scale(noisy, 1.05), "unresolved"},
		{"wide spread, every run slower", noisy, scale(noisy, 2), "worse"},
		{"wide spread, every run faster", noisy, scale(noisy, 0.5), "better"},
		{"single runs, slower than the bound", []float64{100}, []float64{111}, "worse"},
		{"single runs, within the bound", []float64{100}, []float64{95}, "same"},
	} {
		if got := verdict(wall, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	rate := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	if got := verdict(rate, steady, scale(steady, 0.8)); got != "worse" {
		t.Errorf("higher-is-better metric that fell: verdict %q, want worse", got)
	}
}
