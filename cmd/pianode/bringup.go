package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/timeline"
)

// stack is what every serving mode stands on: the node with its link
// flags applied and, as the flags ask, the metrics registry, the
// timeline recorder, the flight recorder with its sampler, and the
// observability listener.
type stack struct {
	o    *options
	node *node.Node
	reg  *metrics.Registry // nil unless -metrics or -report reads it
	frec *flight.Recorder  // nil without -metrics
	smp  *flight.Sampler
	srv  *http.Server
}

// bringUp builds the stack for o's mode around a node of the given
// name. With no observer flag set the node runs on the disabled
// paths: nil registry, nil recorders, one nil check per hook.
func bringUp(o *options, nodeName string) (*stack, error) {
	m := o.mode()
	n := node.New(nodeName)
	if err := o.links.Apply(n); err != nil {
		return nil, err
	}
	st := &stack{o: o, node: n}
	if o.metricsAddr != "" || o.report > 0 {
		st.reg = metrics.NewRegistry()
		metrics.RegisterBuildInfo(st.reg, m.String())
		// The service's node is not wired in: each session runs its
		// own registry (so its samples can carry the tenant label) and
		// the catalog's collector re-emits them all into this one.
		if m != modeService {
			n.EnableMetrics(st.reg)
		}
	}
	if o.timelinePath != "" || o.verbose {
		rec := timeline.NewRecorder(0)
		if o.verbose {
			rec.Subscribe(logTransport)
		}
		n.EnableTimeline(rec)
	}
	// The flight recorder and its /watch stream ride on the metrics
	// listener.
	if o.metricsAddr != "" {
		st.frec = flight.New(0)
		st.frec.SetInfo("mode", m.String())
		st.frec.AttachRegistry(st.reg)
		st.smp = flight.NewSampler(st.reg, st.frec, o.watchEvery)
		if o.flightDump != "" {
			if err := os.MkdirAll(o.flightDump, 0o755); err != nil {
				return nil, fmt.Errorf("pianode: -flight-dump: %w", err)
			}
			st.frec.OnTrip(func(d *flight.Dump) { writeDump(d, o.flightDump, m.String()) })
		}
		n.EnableFlight(st.frec)
		st.smp.Start()
	}
	return st, nil
}

// logTransport is -v's timeline subscriber: it logs each injected
// fault and each transport lifecycle event (a channel opened, accepted,
// lost or rewound; a session epoch dying, resuming or refused) as it
// is recorded.
func logTransport(e timeline.Event) {
	if e.Kind == timeline.KindFault || e.Kind == timeline.KindSession {
		log.Printf("%s %s: %s %s", e.Node, e.Sub, e.Kind, e.Detail)
	}
}

// writeDump writes one tripped post-mortem as a self-contained JSON
// file in dir.
func writeDump(d *flight.Dump, dir, label string) {
	path := filepath.Join(dir, fmt.Sprintf("flight-%s-%d.json", label, d.GeneratedNS))
	var buf bytes.Buffer
	err := d.WriteJSON(&buf)
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o666)
	}
	if err != nil {
		log.Printf("pianode: flight dump: %v", err)
		return
	}
	fmt.Printf("pianode: flight recorder tripped (%s): post-mortem written to %s\n", d.Reason, path)
}

// watch points the stack's observers at a subsystem the mode runs:
// cost attribution into the registry and the rollback-storm trigger.
func (st *stack) watch(sub *core.Subsystem) {
	if st.o.attribTop > 0 {
		sub.EnableCostAttribution(st.reg, st.o.attribTop)
	}
	if st.frec != nil {
		st.frec.TripOnRollbackStorm(sub)
	}
}

// serve starts the observability listener, when -metrics asks for
// one, and returns its bound address. extra carries the mode's own
// endpoints (mesh admin, session catalog).
func (st *stack) serve(extra obsConfig) (string, error) {
	if st.o.metricsAddr == "" {
		return "", nil
	}
	extra.reg, extra.health = st.reg, st.node
	extra.resilient, extra.pprofOn = st.o.links.Resilient(), st.o.pprofOn
	extra.rec = st.frec
	ln, err := net.Listen("tcp", st.o.metricsAddr)
	if err != nil {
		return "", fmt.Errorf("pianode: -metrics %s: %w", st.o.metricsAddr, err)
	}
	st.srv = &http.Server{
		Handler: newObsMux(extra),
		// Slow-client bounds: a scraper that stalls mid-headers or
		// mid-read cannot pin a connection open forever. The write
		// budget is generous because /debug/pprof/profile streams
		// for its ?seconds= argument (30s by default) before the
		// response completes.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := st.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("pianode: metrics server: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// banner prints where the observability surface listens.
func (st *stack) banner(maddr, watchNote string) {
	fmt.Printf("pianode: metrics on http://%s/metrics, health on http://%s/healthz\n", maddr, maddr)
	fmt.Printf("pianode: live telemetry on http://%s/watch%s, flight recorder on http://%s/debug/flight\n", maddr, watchNote, maddr)
	if st.o.pprofOn {
		fmt.Printf("pianode: profiles on http://%s/debug/pprof/\n", maddr)
	}
}

// writeTimeline writes the -timeline file at the end of a run.
func (st *stack) writeTimeline() {
	if st.o.timelinePath == "" {
		return
	}
	if err := st.node.WriteTimeline(st.o.timelinePath); err != nil {
		log.Printf("pianode: -timeline: %v", err)
		return
	}
	fmt.Printf("pianode: timeline written to %s (merge with -timeline-merge)\n", st.o.timelinePath)
}

// close undoes bringUp and serve: the sampler stops first, so its
// closing deltas still reach live watchers and its poll hook never
// judges a mode that is already gone, then scrapes drain and the node
// closes. Safe to call twice.
func (st *stack) close() {
	st.smp.Stop()
	shutdownObs(st.srv)
	st.node.Close()
}

// shutdownObs drains in-flight scrapes before the process exits. A
// nil server (observability was never enabled) is a no-op.
func shutdownObs(srv *http.Server) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("pianode: metrics shutdown: %v", err)
	}
}
