package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// counter registers a pull collector reporting one counter, the way
// every layer reports its Stats counters.
func counter(r *Registry, name string, v int64) {
	r.AddCollector(func(emit func(Sample)) { emit(Sample{Name: name, Kind: KindCounter, Value: v}) })
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 2})
	// All no-ops; must not panic.
	g.Set(7)
	g.Add(-3)
	h.Observe(1)
	r.AddCollector(func(emit func(Sample)) { emit(Sample{Name: "nope"}) })
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}
	if g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pia_test_gauge")
	g.Set(10)
	g.Add(-4)
	if g.Value() != 6 {
		t.Fatalf("gauge = %d, want 6", g.Value())
	}

	h := r.Histogram("pia_test_hist", []int64{10, 100})
	for _, v := range []int64{1, 5, 50, 500} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	byName := map[string]Sample{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	hs := byName["pia_test_hist"]
	if hs.Value != 4 || hs.Sum != 556 {
		t.Fatalf("hist count/sum = %d/%d, want 4/556", hs.Value, hs.Sum)
	}
	want := []bucket{{LE: 10, Count: 2}, {LE: 100, Count: 3}}
	if len(hs.Buckets) != 2 || hs.Buckets[0] != want[0] || hs.Buckets[1] != want[1] {
		t.Fatalf("hist buckets = %+v, want %+v", hs.Buckets, want)
	}
}

func TestKindClashReturnsNil(t *testing.T) {
	r := NewRegistry()
	r.Histogram("same", []int64{1})
	if g := r.Gauge("same"); g != nil {
		t.Fatal("gauge under a histogram name must be nil")
	}
	// And the nil result must still be safe to use.
	r.Gauge("same").Set(1)
}

func TestCollectorAndOrdering(t *testing.T) {
	r := NewRegistry()
	r.Gauge("b_live").Set(2)
	r.AddCollector(func(emit func(Sample)) {
		emit(Sample{Name: "a_pulled", Kind: KindGauge, Value: 9})
		emit(Sample{Name: "c_pulled", Kind: KindCounter, Value: 1})
	})
	snap := r.Snapshot()
	var names []string
	for _, s := range snap {
		names = append(names, s.Name)
	}
	if strings.Join(names, ",") != "a_pulled,b_live,c_pulled" {
		t.Fatalf("snapshot order = %v", names)
	}
}

func TestSnapshotDedup(t *testing.T) {
	r := NewRegistry()
	r.Gauge("dup").Set(1)
	r.AddCollector(func(emit func(Sample)) {
		emit(Sample{Name: "dup", Kind: KindGauge, Value: 99})
	})
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 1 {
		t.Fatalf("dedup failed: %+v (live instrument must win)", snap)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("pia_x"); got != "pia_x" {
		t.Fatal(got)
	}
	got := Label("pia_x", "sub", "handheld", "peer", "modem")
	if got != `pia_x{sub="handheld",peer="modem"}` {
		t.Fatal(got)
	}
}

func TestLabelEscaping(t *testing.T) {
	// A `"` or `\` (or newline) in a label value must not corrupt the
	// rendered name: per the Prometheus exposition format they escape
	// to \" , \\ and \n.
	got := Label("pia_x", "session", `s-"1"\x`+"\n")
	want := `pia_x{session="s-\"1\"\\x\n"}`
	if got != want {
		t.Fatalf("Label escaping: got %s, want %s", got, want)
	}
	// The post-hoc label path (AddLabel -> withLabel) must escape the
	// same way — it is what the multi-tenant aggregation uses on raw
	// session ids.
	if got := AddLabel("pia_y", "session", `a"b`); got != `pia_y{session="a\"b"}` {
		t.Fatalf("AddLabel escaping: got %s", got)
	}
	// And the whole exposition must stay parseable: one sample line,
	// no stray quotes/newlines splitting it.
	r := NewRegistry()
	counter(r, Label("pia_esc", "comp", "a\"b\\c\nd"), 1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if want := `pia_esc{comp="a\"b\\c\nd"} 1` + "\n"; !strings.Contains(out, want) {
		t.Fatalf("exposition missing escaped sample %q:\n%s", want, out)
	}
	if strings.Count(out, "\n") != 2 { // TYPE line + sample line
		t.Fatalf("escaped value split the exposition:\n%q", out)
	}
}

func TestHelpLines(t *testing.T) {
	r := NewRegistry()
	counter(r, Label("pia_helped", "n", "1"), 3)
	counter(r, "pia_unhelped", 1)
	r.SetHelp("pia_helped", "A documented counter.")
	r.SetHelp("pia_helped", "second registration must lose")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# HELP pia_helped A documented counter.\n# TYPE pia_helped counter\n") {
		t.Fatalf("HELP must precede TYPE:\n%s", out)
	}
	if strings.Contains(out, "# HELP pia_unhelped") {
		t.Fatalf("undocumented metric grew a HELP line:\n%s", out)
	}
	if strings.Count(out, "# HELP pia_helped") != 1 {
		t.Fatalf("HELP must appear once per base name:\n%s", out)
	}
	// Nil-registry SetHelp is a no-op, like every other surface.
	(*Registry)(nil).SetHelp("x", "y")
}

func TestHistogramExposition(t *testing.T) {
	// Native histogram exposition: cumulative labelled buckets
	// including +Inf, _sum, _count, and labels preserved on every
	// derived series.
	r := NewRegistry()
	h := r.Histogram(Label("pia_hx", "sub", "a"), []int64{10, 100})
	for _, v := range []int64{1, 50, 500} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pia_hx histogram\n",
		`pia_hx_bucket{sub="a",le="10"} 1` + "\n",
		`pia_hx_bucket{sub="a",le="100"} 2` + "\n",
		`pia_hx_bucket{sub="a",le="+Inf"} 3` + "\n",
		`pia_hx_sum{sub="a"} 551` + "\n",
		`pia_hx_count{sub="a"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r, "test-mode")
	RegisterBuildInfo(nil, "ignored") // must not panic
	var found Sample
	for _, s := range r.Snapshot() {
		if strings.HasPrefix(s.Name, "pia_build_info{") {
			found = s
		}
	}
	if found.Name == "" || found.Value != 1 {
		t.Fatalf("pia_build_info missing or not 1: %+v", found)
	}
	for _, want := range []string{`mode="test-mode"`, `go="`, `version="`} {
		if !strings.Contains(found.Name, want) {
			t.Fatalf("pia_build_info labels missing %s: %s", want, found.Name)
		}
	}
	if BuildVersion() == "" {
		t.Fatal("BuildVersion must never be empty")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# HELP pia_build_info") {
		t.Fatalf("pia_build_info must carry help text:\n%s", buf.String())
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	counter(r, Label("pia_j", "n", "1"), 3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []Sample `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	if len(doc.Metrics) != 1 || doc.Metrics[0].Value != 3 {
		t.Fatalf("round-trip = %+v", doc.Metrics)
	}

	// An empty registry must still produce a valid document with an
	// empty (not null) list.
	buf.Reset()
	if err := NewRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"metrics":[]`) {
		t.Fatalf("empty registry JSON = %q", buf.String())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	counter(r, Label("pia_frames", "node", "n1"), 7)
	counter(r, Label("pia_frames", "node", "n2"), 9)
	h := r.Histogram("pia_lat", []int64{10})
	h.Observe(5)
	h.Observe(50)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pia_frames counter\n",
		`pia_frames{node="n1"} 7` + "\n",
		`pia_frames{node="n2"} 9` + "\n",
		"# TYPE pia_lat histogram\n",
		`pia_lat_bucket{le="10"} 1` + "\n",
		`pia_lat_bucket{le="+Inf"} 2` + "\n",
		"pia_lat_sum 55\n",
		"pia_lat_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE pia_frames") != 1 {
		t.Fatalf("TYPE line must appear once per base name:\n%s", out)
	}
}

func TestReportLine(t *testing.T) {
	r := NewRegistry()
	counter(r, "steps", 12)
	r.Gauge("runnable").Set(3)
	r.Histogram("skip_me", []int64{1}).Observe(1)
	line := ReportLine(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), r.Snapshot())
	if !strings.HasPrefix(line, "pia-report t=03:04:05.000") {
		t.Fatal(line)
	}
	if !strings.Contains(line, "steps=12") || !strings.Contains(line, "runnable=3") {
		t.Fatal(line)
	}
	if strings.Contains(line, "skip_me") {
		t.Fatalf("histograms must not appear in report lines: %s", line)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Gauge("pia_cg").Set(int64(j))
				r.Histogram("pia_ch", []int64{100, 500}).Observe(int64(j))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	found := false
	for _, smp := range r.Snapshot() {
		if smp.Name == "pia_ch" {
			found = true
			if smp.Value != 8000 {
				t.Fatalf("histogram count = %d, want 8000", smp.Value)
			}
		}
	}
	if !found {
		t.Fatal("pia_ch missing from the snapshot")
	}
}
