package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// processStart anchors setup_s at process start (package
// initialization runs before main).
var processStart = time.Now()

// setupPasses is how many times an untraced run sets up; setup_s and
// retained_heap_kb are the medians. The first pass is cold and reads
// up to half again as long, so five passes leave the median two warm
// passes away from it.
const setupPasses = 5

// harness drives one workload as a closed loop with one client:
// build, run to completion, close, verify; then the next simulation.
type harness struct {
	w    *workload
	seed int64
	cfg  simConfig
	want outcome

	tr    *tracer // nil while untraced
	simID int

	errsShown int
}

// oneSim runs one simulation and checks it against want (nil: no
// expectation yet). traced records spans and reads the layer counts.
func (h *harness) oneSim(reference, traced bool, want *outcome) (got outcome, c counts, err error) {
	tr := h.tr
	if !traced {
		tr = nil
	}
	id := h.simID
	h.simID++
	root := tr.begin("harness.sim", "harness", -1, id)
	defer tr.end(root)

	sp := tr.begin("pia.build", "pia", root, id)
	s, err := h.w.build(h.cfg, reference, traced)
	tr.end(sp)
	if err != nil {
		return got, c, fmt.Errorf("build: %w", err)
	}

	sp = tr.begin("pia.run", "pia", root, id)
	err = s.run()
	tr.end(sp)
	if traced {
		c = s.counts()
	}
	got = s.outcome()

	sp = tr.begin("pia.close", "pia", root, id)
	err = errors.Join(err, s.close())
	tr.end(sp)

	sp = tr.begin("harness.verify", "harness", root, id)
	switch {
	case err != nil:
	case !got.Completed:
		err = fmt.Errorf("simulation did not complete: %+v", got)
	case want != nil && got != *want:
		err = fmt.Errorf("invariant missed: got %+v, want %+v", got, *want)
	}
	tr.end(sp)
	return got, c, err
}

// setup generates the inputs, makes the reference run that fixes the
// invariants, warms up, and measures the heap one completed, still
// open simulation retains.
func (h *harness) setup() (retainedKB float64, err error) {
	h.cfg = h.w.generate(h.seed)
	ref, _, err := h.oneSim(true, false, nil)
	if err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	h.want = ref
	if h.seed == 1 {
		h.want = h.w.pinned
		h.want.Digest = ref.Digest
	}
	for i := 1; i < h.w.warmup; i++ {
		if _, _, err := h.oneSim(false, false, &h.want); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	// The last warm-up sim stays open for the heap reading.
	s, err := h.w.build(h.cfg, false, false)
	if err != nil {
		return 0, fmt.Errorf("warm-up build: %w", err)
	}
	err = s.run()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	if err = errors.Join(err, s.close()); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return float64(ms.HeapAlloc) / 1024, nil
}

// phase is one measuring loop's raw result.
type phase struct {
	wallMS, cpuMS []float64
	attempted     int
	failed        int
	mallocs       uint64
	allocBytes    uint64
	counts        counts // summed over the successful sims of a traced phase
}

// samples is the number of simulations that completed and verified.
func (p *phase) samples() int { return len(p.wallMS) }

// measure runs simulations back to back for d. With traced set every
// other simulation is a traced one, so both kinds meet the same host
// noise and their medians differ by the tracing overhead alone.
func (h *harness) measure(d time.Duration, traced bool) (untraced, tr phase) {
	// Sized once, so the loop's own allocations stay out of the counts.
	untraced.wallMS, untraced.cpuMS = make([]float64, 0, 1<<14), make([]float64, 0, 1<<14)
	if traced {
		tr.wallMS, tr.cpuMS = make([]float64, 0, 1<<13), make([]float64, 0, 1<<13)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, start := 0, time.Now(); time.Since(start) < d; i++ {
		p, thisTraced := &untraced, traced && i%2 == 1
		if thisTraced {
			p = &tr
		}
		cpu0, t0 := cpuTime(), time.Now()
		_, c, err := h.oneSim(false, thisTraced, &h.want)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		p.attempted++
		if err != nil {
			p.failed++
			if h.errsShown++; h.errsShown <= 5 {
				fmt.Fprintf(os.Stderr, "bench: %s sim %d failed: %v\n", h.w.name, h.simID-1, err)
			}
			continue
		}
		p.wallMS = append(p.wallMS, float64(wall.Nanoseconds())/1e6)
		p.cpuMS = append(p.cpuMS, float64(cpu.Nanoseconds())/1e6)
		p.counts.add(c)
	}
	runtime.ReadMemStats(&m1)
	// Allocation totals are read only by the all-untraced run.
	untraced.mallocs = m1.Mallocs - m0.Mallocs
	untraced.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return untraced, tr
}

// rusage reads the process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// canary times a fixed spin loop, best of five: it moves only when
// the host does, so a run whose before and after readings differ by
// more than a tenth is marked noisy.
func canary() float64 {
	best := 0.0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		canarySink = spin(uint64(i), 10_000_000)
		if ms := float64(time.Since(t0).Nanoseconds()) / 1e6; i == 0 || ms < best {
			best = ms
		}
	}
	return best
}

var canarySink uint64 // keeps the spin from being optimized away

// envStamp says where and from what a result was measured.
type envStamp struct {
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPUModel   string    `json:"cpu_model"`
	Build      string    `json:"pia_build_info"`
	Start      time.Time `json:"start"`
}

func stampEnv() envStamp {
	return envStamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Build:      metrics.BuildVersion(),
		Start:      processStart.UTC(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the full record of one invocation, appended to the label
// file under bench/out; the driver's line is its last four fields.
type result struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    int        `json:"seconds"`
	Trace      int        `json:"trace"`
	Env        envStamp   `json:"env"`
	Config     simConfig  `json:"config"`
	Invariants outcome    `json:"invariants"`
	CanaryMS   [2]float64 `json:"canary_spin_ms"`
	Noisy      bool       `json:"noisy"`
	Samples    int        `json:"samples"`

	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run measures one workload and returns its record.
func run(w *workload, seed int64, seconds, trace int) (*result, error) {
	runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU()))
	h := &harness{w: w, seed: seed}
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Env: stampEnv()}
	d := time.Duration(seconds) * time.Second

	defs, measure := endToEnd, h.runUntraced
	if trace == 1 {
		defs, measure = perLayer, h.runTraced
	}
	values, err := measure(d, res)
	if err != nil {
		return nil, err
	}

	res.Config, res.Invariants = h.cfg, h.want
	res.Noisy = relDiff(res.CanaryMS[0], res.CanaryMS[1]) > 0.10
	res.Correct = res.Failed == 0 && res.Samples > 0
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, m := range defs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", m.Name) // a bug
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("bench: %d metrics measured, %d registered", len(values), len(defs)) // a bug
	}
	return res, nil
}

// runUntraced sets up setupPasses times, measures with tracing off and
// returns the end-to-end metrics.
func (h *harness) runUntraced(d time.Duration, res *result) (map[string]float64, error) {
	var setupS, retained []float64
	for i, t0 := 0, processStart; i < setupPasses; i, t0 = i+1, time.Now() {
		kb, err := h.setup()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		retained = append(retained, kb)
	}
	res.CanaryMS[0] = canary()
	p, _ := h.measure(d, false)
	res.CanaryMS[1] = canary()
	res.Attempted, res.Failed, res.Samples = p.attempted, p.failed, p.samples()
	n := float64(p.attempted)
	return map[string]float64{
		"setup_s":          median(setupS),
		"sim_wall_ms_p50":  median(p.wallMS),
		"sim_cpu_ms_p50":   median(p.cpuMS),
		"allocs_per_sim":   float64(p.mallocs) / n,
		"alloc_kb_per_sim": float64(p.allocBytes) / 1024 / n,
		"retained_heap_kb": median(retained),
	}, nil
}

// runTraced measures with every other simulation traced, runs the
// probes, writes the span file and returns the per-layer metrics.
func (h *harness) runTraced(d time.Duration, res *result) (map[string]float64, error) {
	if _, err := h.setup(); err != nil {
		return nil, err
	}
	res.CanaryMS[0] = canary()
	h.tr = newTracer()
	base, p := h.measure(d, true)
	probes, err := runProbes(h.tr)
	if err != nil {
		return nil, err
	}
	res.CanaryMS[1] = canary()
	res.Attempted, res.Failed, res.Samples = base.attempted+p.attempted, base.failed+p.failed, p.samples()
	path := fmt.Sprintf("%s/trace-%s-seed%d.json", outDir, h.w.name, h.seed)
	if err := h.tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return layerMetrics(h.w, h.tr, &base, &p, probes, res.CanaryMS[1]), nil
}

// relDiff is |a-b| as a share of the smaller.
func relDiff(a, b float64) float64 {
	if a > b {
		a, b = b, a
	}
	if a <= 0 {
		return 0
	}
	return (b - a) / a
}

// layerMetrics turns a traced phase, the untraced base phase and the
// probes' unit costs into the per-layer metrics and the layer budget.
func layerMetrics(w *workload, tr *tracer, base, p *phase, probe map[string]float64, canaryMS float64) map[string]float64 {
	n := float64(p.samples())
	per := func(v int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / n
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	c := p.counts
	wall := median(p.wallMS)
	m := map[string]float64{
		"core.steps_per_sim":         per(c.core.Steps),
		"core.deliveries_per_sim":    per(c.core.Deliveries),
		"core.stalls_per_sim":        per(c.core.Stalls),
		"core.par_rounds_per_sim":    per(c.core.ParRounds),
		"core.spec_members_per_sim":  per(c.core.SpecMembers),
		"core.spec_commit_ratio":     ratio(c.core.SpecCommits, c.core.SpecMembers),
		"core.rollbacks_per_sim":     per(c.core.Rollbacks),
		"core.comp_busy_ms":          per(c.compBusyNS) / 1e6,
		"channel.data_out_per_sim":   per(c.channel.DataOut),
		"channel.asks_out_per_sim":   per(c.channel.AsksOut),
		"channel.grants_in_per_sim":  per(c.channel.GrantsIn),
		"channel.stragglers_per_sim": per(c.channel.Stragglers),
		"channel.msgs_per_flush":     ratio(c.channel.FlushedMsgs, c.channel.Flushes),
		"wire.kb_out_per_sim":        per(c.wire.BytesOut) / 1024,
		"wire.frames_out_per_sim":    per(c.wire.FramesOut),
		"wire.bytes_per_frame":       ratio(c.wire.BytesOut, c.wire.FramesOut),
		"node.build_ms":              median(tr.durationsMS("pia.build")),
		"node.close_ms":              median(tr.durationsMS("pia.close")),
		"harness.samples":            n,
		"harness.traced_wall_ms_p50": wall,
		"harness.traced_cpu_ms_p50":  median(p.cpuMS),
		"harness.sim_wall_ms_p90":    quantile(base.wallMS, 0.9),
		"harness.peak_rss_mb":        peakRSSMB(),
		"harness.canary_spin_ms":     canaryMS,
	}
	if b := median(base.wallMS); b > 0 {
		m["harness.trace_overhead_frac"] = wall/b - 1
	} else {
		m["harness.trace_overhead_frac"] = 0
	}
	for k, v := range probe {
		m[k] = v
	}
	for k, v := range budget(w, per, c, probe, m["core.comp_busy_ms"], wall) {
		m[k] = v
	}
	return m
}
