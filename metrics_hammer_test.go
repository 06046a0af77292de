package pia

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/flight"
)

// TestMetricsHammer runs a two-node cluster with coalescing, seeded
// WAN faults, and resumable sessions — every observable surface the
// framework has — while goroutines hammer every Stats()/snapshot
// accessor concurrently with the live traffic, a live SSE /watch
// client streams telemetry, a second /watch client deliberately
// stalls, and GET /debug/flight is served throughout. Run under -race
// (the Makefile `metrics` and `obs` targets do), it pins the contract
// that every one of these accessors is safe from any goroutine at any
// time, and that a stalled watcher is dropped without ever blocking a
// publisher.
func TestMetricsHammer(t *testing.T) {
	src := &pingState{N: 300}
	dst := &pongState{}
	b := NewSystem("hammer").
		AddComponent("src", "ssA", src, "out").
		AddComponent("dst", "ssB", dst, "in").
		AddNet("wire", 0, "src.out", "dst.in").
		SetDefaultChannel(Conservative, LinkModel{Latency: Microseconds(50), PerMessage: Microseconds(10)}).
		SetCoalescing(DefaultCoalesce).
		SetFaults(FaultConfig{
			Seed:        11,
			DropProb:    0.02,
			DupProb:     0.02,
			ReorderProb: 0.02,
			CorruptProb: 0.01,
			Partitions:  []FaultPartition{{AtFrame: 50, Heal: 20 * time.Millisecond}},
		}).
		SetResilience(ResilienceConfig{Heartbeat: 100 * time.Millisecond, Seed: 11}).
		SetWorkers(2).
		SetOptimism(Microseconds(4))
	n1, n2 := NewNode("hammer-n1"), NewNode("hammer-n2")
	cl, err := b.BuildOnNodes(map[string]*Node{"ssA": n1, "ssB": n2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	reg := cl.EnableMetrics(NewMetricsRegistry())
	recs := cl.EnableTimeline(64) // small limit: each node's ring wraps under fire

	// The full flight stack: the recorder on the cluster's failure
	// triggers, cost attribution on every dispatch, and a sampler
	// feeding /watch at an aggressive cadence.
	frec := flight.New(128) // small ring: wraps under fire
	frec.AttachRegistry(reg)
	cl.EnableFlight(frec)
	cl.EnableCostAttribution(reg, 3)
	sampler := flight.NewSampler(reg, frec, 5*time.Millisecond)
	sampler.Start()
	defer sampler.Stop()

	mux := http.NewServeMux()
	mux.HandleFunc("/watch", frec.Watch)
	mux.Handle("/debug/flight", frec)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer srv.CloseClientConnections() // unblock any handler mid-write

	// A healthy streaming client drains the live SSE feed for the
	// whole run.
	healthy, err := http.Get(srv.URL + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Body.Close()
	healthyDone := make(chan struct{})
	go func() {
		defer close(healthyDone)
		_, _ = io.Copy(io.Discard, healthy.Body)
	}()

	// A second client subscribes and then never reads: its queue must
	// fill and the recorder must cut it loose without any publisher ever
	// blocking on it.
	stalled, err := http.Get(srv.URL + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Body.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The registry surface, all three exposition paths.
				_ = reg.Snapshot()
				_ = reg.WriteJSON(io.Discard)
				_ = reg.WritePrometheus(io.Discard)

				// Kernel scheduler.
				for _, sub := range cl.Subsystems {
					_ = sub.Stats()
					_, _ = sub.PublishedTimes()
				}
				// Channel endpoints.
				for _, hub := range cl.Hubs {
					for _, ep := range hub.Endpoints() {
						_ = ep.Stats()
						_ = ep.PendingOut()
						_ = ep.SentCount()
						_ = ep.QueuedCount()
						_ = ep.HandledCount()
					}
				}
				// Wire conns, fault links, resilient sessions.
				for _, n := range []*Node{n1, n2} {
					_ = n.WireStats()
					_ = n.FaultStats()
					for _, l := range n.FaultLinks() {
						_ = l.Stats()
						_ = l.Broken()
					}
					_ = n.ResilienceStats()
					_, _ = n.SessionHealth()
				}
				// Timeline recorders (the one ring, under concurrent
				// record, rewind and tail reads from the flight dump).
				for _, rec := range recs {
					_ = rec.Len()
					_ = rec.Stats()
					_ = rec.Events()
				}
				// Flight recorder accessors.
				_ = frec.BuildDump()
				_, _ = frec.Tripped()
				_ = frec.Dropped()
				_ = frec.Sent()
			}
		}()
	}

	// One more goroutine serves GET /debug/flight over real HTTP in a
	// loop: the dump is built while the ring, registry, and timeline
	// are all being written.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/debug/flight")
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	err = cl.Run(Time(Seconds(1)))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(dst.Got) != src.N {
		t.Fatalf("delivered %d/%d through the faulted link", len(dst.Got), src.N)
	}
	for i, v := range dst.Got {
		if v != i {
			t.Fatalf("order broken at %d: %v...", i, dst.Got[:i+1])
		}
	}

	// The registry must have seen the traffic: scheduler steps and
	// wire frames land in the final snapshot.
	snap := reg.Snapshot()
	byName := map[string]int64{}
	for _, s := range snap {
		byName[s.Name] = s.Value
	}
	if byName[`pia_sched_steps{sub="ssA"}`] == 0 {
		t.Fatalf("no scheduler steps in snapshot (%d samples)", len(snap))
	}
	if byName[`pia_wire_frames_out{node="hammer-n1"}`] == 0 {
		t.Fatal("no wire frames in snapshot")
	}
	if byName[`pia_session_resumes{node="hammer-n1"}`] == 0 {
		t.Fatal("no session resumes in snapshot")
	}
	// The Time Warp counters are exported through the same pull
	// collector (and hammered through the same Stats() accessor);
	// single-component subsystems never speculate, so presence — not
	// value — is the contract here.
	for _, series := range []string{
		`pia_optimistic_rounds{sub="ssA"}`,
		`pia_optimistic_members{sub="ssA"}`,
		`pia_optimistic_commits{sub="ssA"}`,
		`pia_optimistic_rollbacks{sub="ssA"}`,
		`pia_optimistic_rolled_back_events{sub="ssA"}`,
	} {
		if _, ok := byName[series]; !ok {
			t.Fatalf("optimistic series %s missing from snapshot", series)
		}
	}
	// Cost attribution saw every dispatch.
	if byName[`pia_comp_cost_ns_total{sub="ssA",comp="src"}`] <= 0 {
		t.Fatal("no attributed cost for ssA/src in snapshot")
	}
	if byName[`pia_comp_cost_top{sub="ssA",rank="1",comp="src"}`] <= 0 {
		t.Fatal("no top-N cost gauge for ssA in snapshot")
	}

	// The stalled client must be cut loose by a publisher without the
	// publisher ever blocking: burst transitions until the recorder drops
	// it. The loop terminating at all IS the non-blocking contract —
	// each publish either enqueues or drops, never waits — and the
	// healthy client keeps streaming throughout.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; frec.Dropped() == 0; i++ {
		frec.Record("health", "hammer", "synthetic burst", int64(i))
		if i%512 == 0 {
			time.Sleep(time.Millisecond) // let the healthy reader drain
			if time.Now().After(deadline) {
				t.Fatal("stalled /watch client was never dropped")
			}
		}
	}
	if got := frec.Dropped(); got < 1 {
		t.Fatalf("recorder dropped %d subscribers, want >= 1", got)
	}
	// The recorder never tripped: faults, rollbacks and the burst are
	// all healthy operation.
	if tripped, reason := frec.Tripped(); tripped {
		t.Fatalf("flight recorder tripped during healthy run: %s", reason)
	}

	// Teardown in dependency order: force-close server conns so the
	// stalled handler's blocked write unwinds, then confirm the healthy
	// stream ends cleanly.
	srv.CloseClientConnections()
	select {
	case <-healthyDone:
	case <-time.After(5 * time.Second):
		t.Fatal("healthy /watch client did not terminate after server close")
	}
}
