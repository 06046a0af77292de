package node

import (
	"bytes"
	"flag"
	"io"
	"log"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/resilience"
)

func parseLinks(t *testing.T, args ...string) *LinkFlags {
	t.Helper()
	fs := flag.NewFlagSet("/usr/local/bin/pianode", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var l LinkFlags
	l.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &l
}

// TestLinkFlagsConfigs: one argv through the shared type yields, field
// by field, the configs pianode and wubbleu each used to fill by hand:
// every -fault-* flag lands in its faultnet field, partitions are
// parsed, and -seed reaches both the fault schedule and the session
// layer.
func TestLinkFlagsConfigs(t *testing.T) {
	l := parseLinks(t, "-seed", "7", "-fault-drop", "0.02", "-fault-dup", "0.03",
		"-fault-reorder", "0.01", "-fault-corrupt", "0.04", "-fault-latency", "2ms",
		"-fault-jitter", "3ms", "-fault-bw", "64000", "-fault-partition", "50:15,90:5",
		"-resilient", "-heartbeat", "20ms")
	fc, rc, err := l.configs()
	if err != nil {
		t.Fatal(err)
	}
	wantF := faultnet.Config{
		Seed:         7,
		Latency:      2 * time.Millisecond,
		Jitter:       3 * time.Millisecond,
		BandwidthBps: 64000,
		DropProb:     0.02,
		DupProb:      0.03,
		ReorderProb:  0.01,
		CorruptProb:  0.04,
		Partitions: []faultnet.Partition{
			{AtFrame: 50, Heal: 15 * time.Millisecond},
			{AtFrame: 90, Heal: 5 * time.Millisecond},
		},
	}
	if !reflect.DeepEqual(fc, wantF) {
		t.Errorf("fault config\n got %+v\nwant %+v", fc, wantF)
	}
	if wantR := (resilience.Config{Heartbeat: 20 * time.Millisecond, Seed: 7}); rc != wantR {
		t.Errorf("session config\n got %+v\nwant %+v", rc, wantR)
	}
	if !l.Resilient() {
		t.Error("Resilient() false with -resilient given")
	}

	// Applied, the node holds exactly those.
	n := New("n")
	if err := l.Apply(n); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n.faults, wantF) || !n.faults.Enabled() {
		t.Errorf("node faults %+v (on %v)", n.faults, n.faults.Enabled())
	}
	if got, on := n.resilient(); !on || got != rc {
		t.Errorf("node session layer %+v (on %v)", got, on)
	}
}

// TestLinkFlagsDefaults: with nothing given the node is left plain;
// without -resilient there is no session layer even when faults are
// armed and -heartbeat is set; a bad partition script is an error
// naming the flag.
func TestLinkFlagsDefaults(t *testing.T) {
	n := New("n")
	if err := parseLinks(t).Apply(n); err != nil {
		t.Fatal(err)
	}
	if _, on := n.resilient(); on || n.faults.Enabled() {
		t.Errorf("defaults armed something: faults %v, session layer %v", n.faults.Enabled(), on)
	}

	l := parseLinks(t, "-fault-drop", "0.5", "-heartbeat", "20ms")
	fc, rc, err := l.configs()
	if err != nil || !fc.Enabled() || fc.Seed != 1 || rc.Enabled() || l.Resilient() {
		t.Errorf("faults without -resilient: fc %+v rc %+v err %v", fc, rc, err)
	}
	n = New("n")
	if err := l.Apply(n); err != nil {
		t.Fatal(err)
	}
	if _, on := n.resilient(); on || n.faultLink("x") == nil {
		t.Errorf("faults without -resilient: session layer %v, want off with a fault link", on)
	}

	err = parseLinks(t, "-fault-partition", "junk").Apply(New("n"))
	if err == nil || !strings.HasPrefix(err.Error(), "pianode: -fault-partition: ") {
		t.Errorf("bad partition script: %v", err)
	}
}

// TestLinkFlagsWarnsOnlyForLossyFaults: faults armed without
// -resilient draw a warning only when a plain link cannot survive them.
// Latency, jitter and a bandwidth cap delay whole frames; drops,
// duplicates, reorders, corruption and partitions lose or damage them.
func TestLinkFlagsWarnsOnlyForLossyFaults(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	warns := func(args ...string) bool {
		t.Helper()
		logged.Reset()
		if err := parseLinks(t, args...).Apply(New("n")); err != nil {
			t.Fatal(err)
		}
		return strings.Contains(logged.String(), "pianode: warning: ")
	}
	if warns("-fault-latency", "2ms", "-fault-jitter", "1ms", "-fault-bw", "1000000") {
		t.Errorf("latency, jitter and bandwidth warned: %q", logged.String())
	}
	for _, args := range [][]string{
		{"-fault-drop", "0.1"}, {"-fault-dup", "0.1"}, {"-fault-reorder", "0.1"},
		{"-fault-corrupt", "0.1"}, {"-fault-partition", "5:1"},
	} {
		if !warns(append(args, "-fault-latency", "2ms")...) {
			t.Errorf("%v without -resilient did not warn", args)
		}
		if warns(append(args, "-resilient")...) {
			t.Errorf("%v with -resilient warned: %q", args, logged.String())
		}
	}
}

// TestLinkFlagsUsage pins the names, defaults and usage strings both
// commands print, and that Has knows exactly these.
func TestLinkFlagsUsage(t *testing.T) {
	const want = `  -fault-bw int
    	bandwidth cap in bits/s (0 = uncapped)
  -fault-corrupt float
    	probability one frame byte is flipped
  -fault-drop float
    	probability a frame is dropped
  -fault-dup float
    	probability a frame is duplicated
  -fault-jitter duration
    	uniform random extra delay per frame
  -fault-latency duration
    	fixed wall-clock delay per frame
  -fault-partition string
    	scripted partitions, "atframe:healms[,...]" e.g. "50:15"
  -fault-reorder float
    	probability a frame is swapped with its successor
  -heartbeat duration
    	session heartbeat interval (default 1s)
  -resilient
    	speak the resumable session protocol (peer must too)
  -seed int
    	fault-schedule seed; same seed reproduces the same faults (default 1)
`
	fs := flag.NewFlagSet("wubbleu", flag.ContinueOnError)
	var out bytes.Buffer
	fs.SetOutput(&out)
	var l LinkFlags
	l.Register(fs)
	fs.PrintDefaults()
	if out.String() != want {
		t.Errorf("usage text\n got:\n%s\nwant:\n%s", out.String(), want)
	}
	fs.String("remote", "", "")
	fs.VisitAll(func(f *flag.Flag) {
		if l.Has(f.Name) != (f.Name != "remote") {
			t.Errorf("Has(%q) = %v", f.Name, l.Has(f.Name))
		}
	})
}
