package main

import (
	"bytes"
	"encoding/json"
)

// The registry is the single source of the benchmark's names: the
// workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics. BENCHMARK.json is printed from it
// (-describe) and a unit test keeps the checked-in file identical.

// runSeconds is how long one invocation measures.
const runSeconds = 25

// metricDef names one metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the gated metrics, all taken from the untraced run.
// "sim" is one build + run-to-completion + close. The counts repeat to
// a fraction of a percent and carry tight bounds. The timings carry the
// widest bound allowed: on the shared two-core host this was written
// on, the spin canary itself drifted by a fifth within ten minutes and
// the medians of identical runs with it, so a tighter timing claim
// needs paired alternating runs (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_wall_ms_p50", "ms", "lower", 0.25},
	{"sim_cpu_ms_p50", "ms", "lower", 0.25},
	{"allocs_per_sim", "count", "lower", 0.02},
	{"alloc_kb_per_sim", "KB", "lower", 0.02},
	{"retained_heap_kb", "KB", "lower", 0.10},
}

// perLayer are the traced run's metrics, named <module>.<metric>.
var perLayer = []metricDef{
	{Name: "core.steps_per_sim", Unit: "count", Better: "lower"},
	{Name: "core.deliveries_per_sim", Unit: "count", Better: "lower"},
	{Name: "core.stalls_per_sim", Unit: "count", Better: "lower"},
	{Name: "core.par_rounds_per_sim", Unit: "count", Better: "lower"},
	{Name: "core.spec_members_per_sim", Unit: "count", Better: "lower"},
	{Name: "core.spec_commit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.rollbacks_per_sim", Unit: "count", Better: "lower"},
	{Name: "core.comp_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_seq_ns", Unit: "ns", Better: "lower"},
	{Name: "core.step_pool_ns", Unit: "ns", Better: "lower"},
	{Name: "core.deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "event.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "event.pop_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.word_kb_us", Unit: "us", Better: "lower"},
	{Name: "proto.packet_kb_us", Unit: "us", Better: "lower"},
	{Name: "channel.data_out_per_sim", Unit: "count", Better: "lower"},
	{Name: "channel.asks_out_per_sim", Unit: "count", Better: "lower"},
	{Name: "channel.grants_in_per_sim", Unit: "count", Better: "lower"},
	{Name: "channel.stragglers_per_sim", Unit: "count", Better: "lower"},
	{Name: "channel.msgs_per_flush", Unit: "ratio", Better: "higher"},
	{Name: "channel.encode_word_ns", Unit: "ns", Better: "lower"},
	{Name: "channel.decode_word_ns", Unit: "ns", Better: "lower"},
	{Name: "channel.encode_packet_ns", Unit: "ns", Better: "lower"},
	{Name: "channel.decode_packet_ns", Unit: "ns", Better: "lower"},
	{Name: "channel.decode_word_allocs", Unit: "count", Better: "lower"},
	{Name: "channel.decode_packet_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.kb_out_per_sim", Unit: "KB", Better: "lower"},
	{Name: "wire.frames_out_per_sim", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_frame", Unit: "count", Better: "higher"},
	{Name: "wire.send_gob_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.recv_gob_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_rt_us", Unit: "us", Better: "lower"},
	{Name: "wire.stream_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "node.build_ms", Unit: "ms", Better: "lower"},
	{Name: "node.close_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.comp_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.event_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.proto_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.channel_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.blocked_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.coverage", Unit: "ratio", Better: "higher"},
	{Name: "harness.samples", Unit: "count", Better: "higher"},
	{Name: "harness.traced_wall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "harness.traced_cpu_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "harness.sim_wall_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "harness.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "harness.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "harness.canary_spin_ms", Unit: "ms", Better: "lower"},
}

// describeJSON renders BENCHMARK.json from the registry.
func describeJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // a bug: the document is plain data
	}
	return buf.Bytes()
}
