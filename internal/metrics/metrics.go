// Package metrics is Pia's unified observability substrate: a small
// registry of counters, gauges, and histograms that every layer's
// Stats surface feeds into, with JSON and Prometheus-style text
// exposition.
//
// The design constraint that shapes everything here is the disabled
// path: simulations that never ask for metrics must pay nothing. Two
// mechanisms provide that:
//
//   - Instruments are nil-safe. A (*Gauge)(nil).Set(1) is a single
//     predictable branch and no memory traffic, so hot paths can keep
//     an instrument field that is simply nil when metrics are off.
//
//   - Most of the wiring is pull-based. Layers that already maintain
//     a race-safe Stats() accessor (endpoints, wire conns, fault
//     links, sessions) are read by Collector closures only when a
//     snapshot is taken, so their hot paths are untouched entirely.
//
// Push-style instruments (the scheduler's per-round lag and runnable
// gauges) exist for values that are only coherent when sampled on the
// owning goroutine at a specific point in the loop.
//
// Metric names follow the Prometheus convention: a base name plus
// optional labels rendered into the name string at registration time,
// e.g. `pia_chan_asks_out{sub="handheld",peer="modemsite"}`. Labels
// are static for the life of an instrument, so rendering them once at
// setup keeps the hot path free of string work.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Instrument kinds as they appear in Sample.Kind and in Prometheus
// `# TYPE` lines.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Gauge is a value that can go up and down. The zero value is ready
// to use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed cumulative buckets. Bounds
// are inclusive upper edges in ascending order; an implicit +Inf
// bucket is always present. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []int64        // ascending upper edges
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~16) and the bounds
	// slice is immutable after construction.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// bucket is one cumulative histogram bucket in a Sample. LE is the
// inclusive upper edge; the +Inf bucket is omitted (its count equals
// the sample's Value).
type bucket struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Sample is one metric value at snapshot time.
type Sample struct {
	// Name is the full rendered name including any labels, e.g.
	// `pia_wire_bytes_out{node="n1"}`.
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Value is the counter/gauge value; for histograms it is the
	// total observation count.
	Value int64 `json:"value"`
	// Sum is the sum of observations (histograms only).
	Sum int64 `json:"sum,omitempty"`
	// Buckets are cumulative bucket counts (histograms only).
	Buckets []bucket `json:"buckets,omitempty"`
}

// Collector is a pull hook: called at snapshot time to emit samples
// computed from some live object (an endpoint list, a node's wire
// conns). Collectors must be safe to call from any goroutine.
type Collector func(emit func(Sample))

type instrument struct {
	name string
	kind string
	g    *Gauge
	h    *Histogram
}

// Registry holds live instruments and pull collectors. A nil
// *Registry is inert: instrument constructors return nil (no-op)
// instruments and Snapshot returns nil, which is what gives the whole
// stack its zero-overhead disabled path.
type Registry struct {
	mu         sync.Mutex
	insts      []instrument
	byName     map[string]int    // index into insts
	help       map[string]string // base name -> # HELP text
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int), help: make(map[string]string)}
}

// SetHelp registers the `# HELP` text emitted for a base metric name
// (the name without its label clause) by WritePrometheus. First
// registration wins; a nil registry or empty text is a no-op.
func (r *Registry) SetHelp(base, text string) {
	if r == nil || base == "" || text == "" {
		return
	}
	r.mu.Lock()
	if _, dup := r.help[base]; !dup {
		r.help[base] = text
	}
	r.mu.Unlock()
}

// helpOf returns the registered help text for a base name ("" if
// none).
func (r *Registry) helpOf(base string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[base]
}

// Gauge returns the gauge registered under name, creating it if
// needed. Returns nil on a nil registry or on a kind clash.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		return r.insts[i].g
	}
	g := &Gauge{}
	r.byName[name] = len(r.insts)
	r.insts = append(r.insts, instrument{name: name, kind: KindGauge, g: g})
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds (ascending inclusive upper edges) if
// needed. Returns nil on a nil registry or on a kind clash.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		return r.insts[i].h
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	r.byName[name] = len(r.insts)
	r.insts = append(r.insts, instrument{name: name, kind: KindHistogram, h: h})
	return h
}

// AddCollector registers a pull hook evaluated at every Snapshot.
// No-op on a nil registry.
func (r *Registry) AddCollector(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Snapshot returns the current value of every instrument plus
// everything the collectors emit, sorted by name. Duplicate names
// (e.g. a collector wired twice) keep their first occurrence. Safe to
// call concurrently with instrument updates and live traffic.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	insts := make([]instrument, len(r.insts))
	copy(insts, r.insts)
	colls := make([]Collector, len(r.collectors))
	copy(colls, r.collectors)
	r.mu.Unlock()

	var out []Sample
	for _, in := range insts {
		s := Sample{Name: in.name, Kind: in.kind}
		switch in.kind {
		case KindGauge:
			s.Value = in.g.Value()
		case KindHistogram:
			h := in.h
			var cum int64
			for i := range h.bounds {
				cum += h.counts[i].Load()
				s.Buckets = append(s.Buckets, bucket{LE: h.bounds[i], Count: cum})
			}
			s.Value = h.n.Load()
			s.Sum = h.sum.Load()
		}
		out = append(out, s)
	}
	for _, c := range colls {
		c(func(s Sample) { out = append(out, s) })
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	// Drop duplicates after the stable sort so first registration
	// wins deterministically.
	dedup := out[:0]
	for i, s := range out {
		if i > 0 && out[i-1].Name == s.Name {
			continue
		}
		dedup = append(dedup, s)
	}
	return dedup
}

// KV is one (metric name, value) pair for EmitCounters.
type KV struct {
	Name  string
	Value int64
}

// EmitCounters emits one counter sample per pair, each labelled with
// the same alternating key/value labels — the common shape of a pull
// collector walking a Stats struct. Shared by the node wire/timeline
// collectors so new observability surfaces don't re-roll the loop.
func EmitCounters(emit func(Sample), labels []string, pairs ...KV) {
	for _, p := range pairs {
		emit(Sample{
			Name:  Label(p.Name, labels...),
			Kind:  KindCounter,
			Value: p.Value,
		})
	}
}

// Label renders a base name plus alternating key/value label pairs
// into the canonical `name{k="v",...}` form used throughout Pia.
// Called once at registration time so hot paths never build strings.
// Label values are escaped per the Prometheus exposition format
// (backslash, double quote, newline), so a hostile session or
// component name cannot corrupt the scrape.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	b := make([]byte, 0, len(name)+16*len(kv))
	b = append(b, name...)
	b = append(b, '{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[i]...)
		b = append(b, '=', '"')
		b = appendEscaped(b, kv[i+1])
		b = append(b, '"')
	}
	b = append(b, '}')
	return string(b)
}

// appendEscaped appends a label value with the exposition-format
// escapes: `\` -> `\\`, `"` -> `\"`, newline -> `\n`.
func appendEscaped(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, v[i])
		}
	}
	return b
}
