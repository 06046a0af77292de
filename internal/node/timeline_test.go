package node

import (
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/resilience"
	"repro/internal/timeline"
)

// transportFromEvents counts, from n's recorder, what
// transportFromStats counts from n's counters: faults per link, epoch
// deaths, and resumes past each session's first attach.
func transportFromEvents(n *Node) map[string]int64 {
	out := make(map[string]int64)
	for _, e := range n.Timeline().Events() {
		switch {
		case e.Kind == timeline.KindFault:
			out["fault "+e.Sub]++
		case e.Kind == timeline.KindSession && strings.HasPrefix(e.Detail, "epoch-death "):
			out["epoch-death"]++
		case e.Kind == timeline.KindSession && strings.HasPrefix(e.Detail, "resume "):
			out["resume"]++
		}
	}
	return out
}

func transportFromStats(n *Node) map[string]int64 {
	out := make(map[string]int64)
	for name, st := range n.FaultStats() {
		if f := st.Cuts + st.Dropped + st.Corrupted + st.Reordered + st.Duplicated; f > 0 {
			out["fault "+name] = f
		}
	}
	n.mu.Lock()
	sessions := int64(len(n.sessions))
	n.mu.Unlock()
	rs := n.ResilienceStats()
	if rs.EpochDeaths > 0 {
		out["epoch-death"] = rs.EpochDeaths
	}
	if r := rs.Resumes - sessions; r > 0 {
		out["resume"] = r
	}
	return out
}

// channelEvents returns the details of n's session events whose actor
// is the named channel.
func channelEvents(n *Node, channel string) []string {
	var out []string
	for _, e := range n.Timeline().Events() {
		if e.Kind == timeline.KindSession && e.Sub == channel {
			out = append(out, e.Detail)
		}
	}
	return out
}

// TestTransportEventsMatchStats: on a faulted, resilient two-node pair
// with a recorder on each node, the timeline says what the transport
// did — one fault event per fault each link counted, one epoch-death
// and one resume event per epoch death and resume its sessions counted
// (a session's first attach is its channel's opened or accepted
// event) — and each node records the channel it opened or accepted.
func TestTransportEventsMatchStats(t *testing.T) {
	p := buildChaosPair(t, 30, 10, 5, func(n1, n2 *Node) {
		fcfg := faultnet.Config{
			Seed:     7,
			DropProb: 0.03, DupProb: 0.02, ReorderProb: 0.02, CorruptProb: 0.02,
			Partitions: []faultnet.Partition{{AtFrame: 40, Heal: 30 * time.Millisecond}},
		}
		rcfg := resilience.Config{
			Heartbeat: 10 * time.Millisecond, HeartbeatMiss: 3,
			RetryBase: 2 * time.Millisecond, RetryMax: 200,
		}
		for _, n := range []*Node{n1, n2} {
			n.SetFaults(fcfg)
			n.SetResilience(rcfg)
			n.EnableTimeline(timeline.NewRecorder(0))
		}
	})
	p.run(t, 2000)
	p.n1.Close()
	p.n2.Close()

	total := map[string]int64{}
	for _, n := range []*Node{p.n1, p.n2} {
		if st := n.Timeline().Stats(); st.Evicted != 0 {
			t.Fatalf("%s: recorder evicted %d events", n.Name(), st.Evicted)
		}
		// A frame a session goroutine was writing as the node closed
		// may still be counted. Each counter moves together with its
		// event, so events ≤ stats ≤ events-again always holds, and a
		// read whose two event counts agree pins the stats exactly.
		deadline := time.Now().Add(10 * time.Second)
		for {
			before := transportFromEvents(n)
			stats := transportFromStats(n)
			after := transportFromEvents(n)
			if maps.Equal(before, after) {
				if !maps.Equal(before, stats) {
					t.Fatalf("%s: the timeline says %v, the counters %v", n.Name(), before, stats)
				}
				for k, v := range before {
					total[strings.Fields(k)[0]] += v
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: transport events still moving after close: %v, then %v", n.Name(), before, after)
			}
			runtime.Gosched()
		}
	}
	if total["fault"] == 0 || total["epoch-death"] == 0 || total["resume"] == 0 {
		t.Fatalf("the faults never exercised recovery: %v", total)
	}

	for _, c := range []struct {
		n       *Node
		channel string
		want    string
	}{
		{p.n1, "chan:handheld>server", "opened to "},
		{p.n2, "chan:server>handheld", "accepted from node1"},
	} {
		got := channelEvents(c.n, c.channel)
		if len(got) == 0 || !strings.HasPrefix(got[0], c.want) {
			t.Errorf("%s: channel %s events %q, want the first to start %q", c.n.Name(), c.channel, got, c.want)
		}
	}
}

// TestWriteTimelineWithoutRecorderKeepsFile: asking a node with no
// recorder for its timeline fails before the file is touched.
func TestWriteTimelineWithoutRecorderKeepsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl.json")
	if err := os.WriteFile(path, []byte("earlier run"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := New("bare").WriteTimeline(path); err == nil {
		t.Fatal("WriteTimeline without a recorder succeeded")
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "earlier run" {
		t.Fatalf("the existing file did not survive: %q, %v", b, err)
	}
}
