package node

import (
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/timeline"
)

// TestEnableOrderIndependent: the node's three Enable* calls wire the
// same thing in all six orders — recorder health counters exported
// through the registry, and a flight post-mortem carrying both the
// registry's snapshot and the recorder's tail.
func TestEnableOrderIndependent(t *testing.T) {
	const m, tl, f = "metrics", "timeline", "flight"
	for _, order := range [][3]string{
		{m, tl, f}, {m, f, tl}, {tl, m, f}, {tl, f, m}, {f, m, tl}, {f, tl, m},
	} {
		t.Run(strings.Join(order[:], ","), func(t *testing.T) {
			n := New("n1")
			reg, rec, frec := metrics.NewRegistry(), timeline.NewRecorder(0), flight.New(0)
			for _, step := range order {
				switch step {
				case m:
					n.EnableMetrics(reg)
				case tl:
					n.EnableTimeline(rec)
				case f:
					n.EnableFlight(frec)
				}
			}
			rec.Drive("s", "c", "net", 10, 7)

			d := frec.BuildDump()
			if len(d.Timeline) != 1 {
				t.Errorf("dump carries %d timeline events, want 1", len(d.Timeline))
			}
			exported := false
			for _, s := range d.Metrics {
				if s.Name == `pia_timeline_recorded{node="n1"}` {
					exported = s.Value == 1
				}
			}
			if !exported {
				t.Errorf("dump's metrics block lacks pia_timeline_recorded{node=\"n1\"} = 1 (%d samples)", len(d.Metrics))
			}
		})
	}
}
