// pianode runs a standalone Pia node serving the modem site of the
// WubbleU design: the cellular communication ASIC plus the dedicated
// server behind its wireless link. This is the parts-vendor scenario
// the paper motivates — a component made available over the network
// for designers to patch into their simulated circuits.
//
// Start the server:
//
//	pianode -listen 127.0.0.1:7777 -level packetLevel
//
// then run the handheld side against it:
//
//	wubbleu -remote 127.0.0.1:7777
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"time"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/timeline"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

// mode is what the node does with its life, derived once from the
// flags; as a bit set it also says which modes read a flag.
type mode uint8

const (
	modeModem   mode = 1 << iota // serve the WubbleU modem site (the default)
	modeService                  // multi-tenant session catalog
	modeMesh                     // one member of an N-node control plane
	modeMerge                    // stitch timeline files and exit

	serving = modeModem | modeService | modeMesh
)

var modeNames = map[mode]string{modeModem: "modemsite", modeService: "service", modeMesh: "mesh", modeMerge: "timeline-merge"}

// String is the mode's name in build info, flight dumps and messages.
func (m mode) String() string { return modeNames[m] }

// options is every flag's value; the flags bind straight into it.
type options struct {
	listen, level  string
	pageKB, images int
	verbose        bool
	workers        int
	optimism       int64
	links          node.LinkFlags

	metricsAddr              string
	report, watchEvery       time.Duration
	pprofOn                  bool
	timelinePath, flightDump string
	attribTop                int
	timelineMerge            string
	args                     []string // positional: the files -timeline-merge reads

	service bool
	limits  service.Limits

	meshName, meshPeers, meshMigrate string
	meshStep, meshUntil              time.Duration
}

// readBy says which modes read each flag (the link flags, declared by
// node.LinkFlags, are read by every serving mode). A flag set in a
// mode that does not read it is a conflict, not a silent no-op.
var readBy = map[string]mode{
	"listen": serving, "v": serving, "metrics": serving, "pprof": serving,
	"flight-dump": serving, "watch-interval": serving, "attrib-top": serving,
	"level": modeModem, "page": modeModem, "images": modeModem,
	"optimism": modeModem, "report": modeModem,
	"workers":        modeModem | modeService,
	"timeline":       modeModem | modeMesh,
	"timeline-merge": modeMerge,
	"service":        modeService, "max-sessions": modeService, "max-mem": modeService,
	"max-session-mem": modeService, "max-steps": modeService,
	"mesh-name": modeMesh, "peers": modeMesh, "mesh-step": modeMesh,
	"mesh-until": modeMesh, "mesh-migrate": modeMesh,
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7777", "address to serve Pia channels on")
	fs.StringVar(&o.level, "level", "packetLevel", "initial DMA detail level (hardwareLevel|wordLevel|packetLevel)")
	fs.IntVar(&o.pageKB, "page", 66, "page size in KB served by the web store")
	fs.IntVar(&o.images, "images", 4, "images embedded in the page")
	fs.BoolVar(&o.verbose, "v", false, "log each injected fault and each channel and session lifecycle event (opened, accepted, lost, rewound, epoch death, resume, refusal) as it happens")
	fs.IntVar(&o.workers, "workers", 0, "scheduler worker-pool size (0 = sequential; results are identical)")
	fs.Int64Var(&o.optimism, "optimism", 0, "speculate this many virtual ns past the safe horizon when workers would idle (0 = conservative; results are identical)")

	// Deterministic fault injection on accepted connections (chaos
	// testing a designer's link against this vendor node) and the
	// resumable sessions that survive it: the flags wubbleu takes too.
	o.links.Register(fs)

	// Observability: the unified metrics registry, exposed over HTTP
	// and/or as periodic run-report lines.
	fs.StringVar(&o.metricsAddr, "metrics", "", "serve /metrics (JSON + Prometheus text) and /healthz on this address (empty = off)")
	fs.DurationVar(&o.report, "report", 0, "print a structured run-report line at this interval (0 = off)")
	fs.BoolVar(&o.pprofOn, "pprof", false, "also serve /debug/pprof/ on the -metrics address")
	fs.StringVar(&o.timelinePath, "timeline", "", "record a structured timeline and write it (per-node native JSON) to this file at shutdown")
	fs.StringVar(&o.flightDump, "flight-dump", "", "write flight-recorder post-mortem JSON dumps into this directory when a failure trigger trips (requires -metrics)")
	fs.DurationVar(&o.watchEvery, "watch-interval", time.Second, "sampling cadence for the /watch telemetry stream and the flight recorder's metric deltas")
	fs.IntVar(&o.attribTop, "attrib-top", 0, "per-component wall-cost attribution: export cost histograms plus a top-N ranking in /metrics (0 = off; requires -metrics)")
	fs.StringVar(&o.timelineMerge, "timeline-merge", "", "merge per-node timeline files (remaining args) into a Perfetto trace at this path, then exit")

	// Service mode: a multi-tenant session catalog replaces the single
	// modem-site subsystem. Designers create sessions over HTTP and
	// attach over the shared data listener by session id.
	fs.BoolVar(&o.service, "service", false, "run the multi-tenant session service (session API on the -metrics address, data channels on -listen)")
	fs.IntVar(&o.limits.MaxSessions, "max-sessions", 0, "service mode: admission cap on concurrent sessions (0 = unlimited)")
	fs.Int64Var(&o.limits.MaxMemBytes, "max-mem", 0, "service mode: admission cap on total session footprint bytes (0 = unlimited)")
	fs.Int64Var(&o.limits.MaxSessionMemBytes, "max-session-mem", 0, "service mode: admission cap on a single session's footprint bytes (0 = unlimited)")
	fs.Int64Var(&o.limits.MaxSteps, "max-steps", 0, "service mode: per-session scheduler-step budget; crossing it evicts the tenant (0 = unlimited)")

	// Mesh mode: join an N-node control plane running the shared
	// migration demo workload instead of serving the modem site.
	fs.StringVar(&o.meshName, "mesh-name", "", "join a mesh as this member and run the migration demo workload (requires -peers)")
	fs.StringVar(&o.meshPeers, "peers", "", "static mesh peer list: comma-separated name=host:port control addresses including this member's own entry (bare host:port entries get names derived from the address)")
	fs.DurationVar(&o.meshStep, "mesh-step", 25*time.Millisecond, "mesh lock-step round length in virtual time")
	fs.DurationVar(&o.meshUntil, "mesh-until", 0, "virtual horizon for the mesh run (0 = the demo workload's natural horizon)")
	fs.StringVar(&o.meshMigrate, "mesh-migrate", "", "scripted live migration, \"component:dest@virtualtime\" e.g. \"hot:bravo@50ms\" (leader only)")
}

func (o *options) mode() mode {
	switch {
	case o.timelineMerge != "":
		return modeMerge
	case o.service:
		return modeService
	case o.meshName != "" || o.meshPeers != "":
		return modeMesh
	}
	return modeModem
}

// validate returns every flag conflict at once: each flag in set (the
// names given on the command line) that the selected mode never
// reads, then the rules between flags. It touches nothing outside o.
func (o *options) validate(set []string) error {
	m := o.mode()
	var errs []error
	bad := func(format string, a ...any) { errs = append(errs, fmt.Errorf("pianode: "+format, a...)) }
	for _, name := range set {
		by := readBy[name]
		if o.links.Has(name) {
			by = serving
		}
		if by&m == 0 {
			bad("-%s is not read in %s mode", name, m)
		}
	}
	noMetrics := m != modeMerge && o.metricsAddr == ""
	for _, rule := range []struct {
		hit bool
		msg string
	}{
		{m == modeMerge && len(o.args) == 0, "-timeline-merge needs at least one per-node timeline file argument"},
		{noMetrics && o.pprofOn, "-pprof needs -metrics to provide the HTTP listener"},
		{noMetrics && o.flightDump != "", "-flight-dump needs -metrics to enable the flight recorder"},
		{noMetrics && o.attribTop > 0 && o.report <= 0, "-attrib-top needs -metrics (or -report) to provide the registry"},
		{m == modeService && (o.meshName != "" || o.meshPeers != ""), "-service and mesh mode are mutually exclusive"},
		{noMetrics && m == modeService, "-service needs -metrics to provide the session API listener"},
		{m == modeMesh && o.meshName == "", "-peers needs -mesh-name to say which member this node is"},
	} {
		if rule.hit {
			bad("%s", rule.msg)
		}
	}
	return errors.Join(errs...)
}

// parse declares the flags on fs, parses argv into o and returns the
// names of the flags given.
func (o *options) parse(fs *flag.FlagSet, argv []string) (set []string, err error) {
	o.register(fs)
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	o.args = fs.Args()
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	return set, nil
}

func main() {
	var o options
	set, _ := o.parse(flag.CommandLine, os.Args[1:]) // exits on a parse error
	if err := o.validate(set); err != nil {
		log.Fatal(err)
	}
	m := o.mode()
	// The single-node default port would collide between co-hosted
	// mesh members; mesh mode defaults to an ephemeral data port (the
	// control plane exchanges the bound addresses) unless -listen was
	// given explicitly.
	if m == modeMesh && !slices.Contains(set, "listen") {
		o.listen = "127.0.0.1:0"
	}
	run := runModem
	switch m {
	case modeMerge:
		run = runMerge
	case modeService:
		run = runService
	case modeMesh:
		run = runMesh
	}
	if err := run(&o); err != nil {
		log.Fatal(err)
	}
}

// runMerge stitches per-node timeline files from a distributed run
// into one Perfetto trace, without serving anything.
//
//	pianode -timeline-merge trace.json node-a.json node-b.json
func runMerge(o *options) error {
	var buf bytes.Buffer
	if err := timeline.MergeFiles(&buf, o.args...); err != nil {
		return fmt.Errorf("pianode: -timeline-merge: %v", err)
	}
	if err := os.WriteFile(o.timelineMerge, buf.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Printf("pianode: merged %d timeline file(s) into %s (open at ui.perfetto.dev)\n",
		len(o.args), o.timelineMerge)
	return nil
}

// runModem serves the WubbleU modem site as one subsystem a
// designer's node dials.
func runModem(o *options) error {
	cfg := wubbleu.DefaultConfig()
	cfg.PageSize = o.pageKB * 1024
	cfg.Images = o.images
	cfg.Level = o.level

	// This process hosts the modem-site slice of the one description;
	// the designer's node hosts the handheld's.
	b := pia.NewSystem("wubbleu").SetWorkers(o.workers).SetOptimism(pia.Duration(o.optimism))
	if _, err := wubbleu.Install(b, cfg, wubbleu.RemotePlacement()); err != nil {
		return err
	}
	sub, err := b.BuildSubsystem("modemsite")
	if err != nil {
		return err
	}

	st, err := bringUp(o, "modem-node")
	if err != nil {
		return err
	}
	defer st.close()
	n := st.node
	// When a designer's node connects, splice the incoming channel
	// into our fragment of the split "dma" net.
	n.Host(sub).OnChannel = func(ep *channel.Endpoint) {
		if err := ep.BindNet(sub.Net("dma"), "dma"); err != nil {
			log.Printf("pianode: bind dma: %v", err)
		}
	}
	st.watch(sub)

	addr, err := n.Listen(o.listen)
	if err != nil {
		return err
	}
	fmt.Printf("pianode: serving subsystem %q (level %s, %d KB page) on %s\n",
		sub.Name(), cfg.Level, o.pageKB, addr)
	maddr, err := st.serve(obsConfig{})
	if err != nil {
		return err
	}
	if maddr != "" {
		st.banner(maddr, "")
	}
	if o.report > 0 {
		t := time.NewTicker(o.report)
		defer t.Stop()
		go func() {
			for range t.C {
				fmt.Println(reportLine(sub, n))
			}
		}()
	}

	// The listening socket is a standing ingress source: the
	// subsystem must not declare the simulation over just because no
	// designer has connected yet.
	sub.AddExternal()

	done := make(chan error, 1)
	go func() { done <- sub.Run(vtime.Infinity) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case err := <-done:
		if err != nil {
			return err
		}
		fmt.Println("pianode: simulation complete")
	case <-sig:
		fmt.Println("pianode: interrupted")
		sub.Stop()
		<-done
	}
	st.writeTimeline()
	return nil
}

// healthSource is the slice of the node the health endpoint reads —
// an interface so the handler can be exercised against fabricated
// session states.
type healthSource interface {
	SessionHealth() (total, alive int)
	ResilienceStats() resilience.Stats
}

// migrator is the slice of the mesh member the admin endpoints use —
// an interface so the mux can be tested without forming a mesh.
// *mesh.Member implements it.
type migrator interface {
	Health() mesh.Health
	Name() string
	Leader() string
	Epoch() uint64
	Placement() map[string]string
	Members() []string
	RequestMigration(comp, dest string) error
}

// obsConfig selects what the observability mux serves.
type obsConfig struct {
	reg       *metrics.Registry
	health    healthSource
	resilient bool
	pprofOn   bool
	mem       migrator         // mesh mode: membership health + migration admin
	catalog   *service.Catalog // service mode: session API + per-tenant health
	rec       *flight.Recorder // GET /debug/flight post-mortem view, GET /watch SSE stream
}

// newObsMux assembles the observability surface: /metrics in
// Prometheus text by default (JSON via ?format=json or an Accept
// header asking for application/json), /healthz reporting session
// liveness, and — when enabled — the net/http/pprof profile surface
// under /debug/pprof/. With a mesh member, /healthz switches to the
// membership view and POST /migrate becomes the live-migration admin
// endpoint; with a session catalog, the /sessions API is mounted and
// /healthz gains per-tenant liveness.
func newObsMux(o obsConfig) *http.ServeMux {
	mux := http.NewServeMux()
	if o.pprofOn {
		// The handlers register themselves on http.DefaultServeMux at
		// import time; this mux is a private one, so wire them in
		// explicitly. Index serves every named profile (heap,
		// goroutine, allocs, ...) under the prefix.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var err error
		if r.URL.Query().Get("format") == "json" ||
			strings.Contains(r.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			err = o.reg.WriteJSON(w)
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			err = o.reg.WritePrometheus(w)
		}
		if err != nil {
			log.Printf("pianode: writing /metrics response: %v", err)
		}
	})
	if o.rec != nil {
		mux.Handle("/debug/flight", o.rec)
		mux.HandleFunc("/watch", o.rec.Watch)
	}
	if o.mem != nil {
		mux.HandleFunc("/migrate", func(w http.ResponseWriter, r *http.Request) {
			handleMigrate(w, r, o.mem)
		})
	}
	if o.catalog != nil {
		api := service.Handler(o.catalog)
		mux.Handle("/sessions", api)
		mux.Handle("/sessions/", api)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if o.mem != nil {
			meshHealth(w, o.mem)
			return
		}
		nodeHealth(w, o)
	})
	return mux
}

// nodeHealth reports session liveness. A dead session is one that
// exhausted its retry budget or hit an unresumable gap: the designer
// on its far end is gone for good, which is exactly what a health
// probe should surface — whether or not -resilient armed the
// resumable protocol. Sessions mid-outage still count as alive. In
// service mode the tenant catalog is folded in: a failed or evicted
// tenant degrades the probe the same way.
func nodeHealth(w http.ResponseWriter, o obsConfig) {
	total, alive := o.health.SessionHealth()
	rs := o.health.ResilienceStats()
	status, code := "ok", http.StatusOK
	if total > alive {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	body := map[string]any{
		"resilient":       o.resilient,
		"sessions":        total,
		"sessions_alive":  alive,
		"epoch_deaths":    rs.EpochDeaths,
		"resumes":         rs.Resumes,
		"replayed_frames": rs.ReplayedFrames,
		"rewinds":         rs.Rewinds,
	}
	if o.catalog != nil {
		infos, rev := o.catalog.List()
		tenants := make(map[string]string, len(infos))
		dead := 0
		for _, in := range infos {
			tenants[in.ID] = string(in.State)
			if in.State == service.StateFailed || in.State == service.StateEvicted {
				dead++
			}
		}
		if dead > 0 && code == http.StatusOK {
			status, code = "degraded", http.StatusServiceUnavailable
		}
		body["service"] = true
		body["catalog_rev"] = rev
		body["tenants"] = tenants
		body["tenants_failed"] = dead
	}
	body["status"] = status
	writeObsJSON(w, code, body)
}

// writeObsJSON writes a JSON response and logs the failure a bare
// Encode would swallow — a probe hanging up mid-body otherwise looks
// identical to a served request.
func writeObsJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("pianode: writing response: %v", err)
	}
}

// meshHealth reports this member's view of the mesh: every member
// with its join/leave state and last-heartbeat age. The probe fails
// (503) only when a quorum of members is dead; losing one peer of a
// larger mesh reports "degraded" but stays 200, because the mesh is
// still able to coordinate rounds once the peer returns.
func meshHealth(w http.ResponseWriter, mem migrator) {
	h := mem.Health()
	status, code := "ok", http.StatusOK
	switch {
	case h.QuorumDead:
		status, code = "quorum-dead", http.StatusServiceUnavailable
	case h.Alive < h.Total:
		status = "degraded"
	}
	writeObsJSON(w, code, map[string]any{
		"status":     status,
		"mesh":       true,
		"self":       mem.Name(),
		"leader":     mem.Leader(),
		"epoch":      mem.Epoch(),
		"placement":  mem.Placement(),
		"members":    h.Members,
		"alive":      h.Alive,
		"total":      h.Total,
		"quorumDead": h.QuorumDead,
	})
}

// handleMigrate accepts POST /migrate?component=hot&dest=bravo on any
// member and forwards the request to the mesh leader, which performs
// the migration at the next held drain barrier. 200 means the leader
// queued it (completion shows up as an epoch bump in /healthz), 409
// carries the leader's reason for refusing, 502 means the leader could
// not be reached.
func handleMigrate(w http.ResponseWriter, r *http.Request, mem migrator) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	comp := r.FormValue("component")
	if comp == "" {
		comp = r.FormValue("comp")
	}
	dest := r.FormValue("dest")
	if comp == "" || dest == "" {
		http.Error(w, "need component= and dest= parameters", http.StatusBadRequest)
		return
	}
	if _, ok := mem.Placement()[comp]; !ok {
		http.Error(w, fmt.Sprintf("unknown component %q", comp), http.StatusNotFound)
		return
	}
	known := false
	for _, name := range mem.Members() {
		known = known || name == dest
	}
	if !known {
		http.Error(w, fmt.Sprintf("unknown member %q", dest), http.StatusNotFound)
		return
	}
	if err := mem.RequestMigration(comp, dest); err != nil {
		code := http.StatusBadGateway // the leader could not be asked
		if refused := (*mesh.Refused)(nil); errors.As(err, &refused) {
			code = http.StatusConflict // it was, and said no
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeObsJSON(w, http.StatusOK, map[string]any{
		"accepted":  true,
		"component": comp,
		"dest":      dest,
		"leader":    mem.Leader(),
	})
}

// runService turns the node into a multi-tenant simulation service:
// a session catalog managed over HTTP on the -metrics address, every
// live session hosted under its id behind the one shared data
// listener, all of them fair-sharing one bounded worker pool.
func runService(o *options) error {
	st, err := bringUp(o, "service-node")
	if err != nil {
		return err
	}
	defer st.close()
	cat := service.NewCatalog(service.Config{
		Workers:         o.workers,
		Limits:          o.limits,
		Node:            st.node,
		Metrics:         st.reg,
		Flight:          st.frec,
		AttributionTopN: o.attribTop,
	})
	defer cat.Close()

	addr, err := st.node.Listen(o.listen)
	if err != nil {
		return err
	}
	maddr, err := st.serve(obsConfig{catalog: cat})
	if err != nil {
		return err
	}
	fmt.Printf("pianode: session service up: data channels on %s, session API on http://%s/sessions\n",
		addr, maddr)
	st.banner(maddr, " (?session= filters a tenant)")
	if o.workers > 0 {
		fmt.Printf("pianode: sessions fair-share a %d-worker pool\n", o.workers)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("pianode: interrupted")
	shutdownObs(st.srv)
	cs := cat.Stats()
	fmt.Printf("pianode: service done: live=%d created=%d stopped=%d evicted=%d rejected=%d\n",
		cs.Live, cs.Created, cs.Stopped, cs.Evicted, cs.Rejected)
	return nil
}

// runMesh joins the static mesh as one member and runs the shared
// migration demo workload in lock step with its peers. The
// lexicographically smallest member leads; every member prints its
// per-component drive digests at the end, so bit-identical output
// across a migrated and a stationary run can be checked from the
// shell.
func runMesh(o *options) error {
	peers, err := parsePeers(o.meshPeers)
	if err != nil {
		return err
	}
	self, ok := peers[o.meshName]
	if !ok {
		return fmt.Errorf("pianode: -peers has no entry for this member %q", o.meshName)
	}
	names := make([]string, 0, len(peers))
	for name := range peers {
		names = append(names, name)
	}
	sort.Strings(names)
	// The control plane is N-node; the demo workload is written for
	// exactly three members (DemoBlueprint rejects other sizes).
	params := mesh.DemoParams{Members: names}
	bp, err := mesh.DemoBlueprint(params)
	if err != nil {
		return err
	}

	st, err := bringUp(o, o.meshName)
	if err != nil {
		return err
	}
	defer st.close()
	mem, err := mesh.New(mesh.Config{
		Name:       o.meshName,
		Blueprint:  bp,
		Node:       st.node,
		CtlListen:  self,
		DataListen: o.listen,
		Timeline:   st.node.Timeline(),
	})
	if err != nil {
		return err
	}
	defer mem.Close()
	fmt.Printf("pianode: mesh member %q: control on %s, data on %s\n",
		o.meshName, mem.CtlAddr(), mem.DataAddr())

	// Peer loss trips the flight recorder via the node; quorum death
	// via the sampler's poll hook (membership health is not
	// registry-driven).
	if st.frec != nil {
		st.frec.SetInfo("member", o.meshName)
		st.smp.SetPoll(func() {
			if h := mem.Health(); h.QuorumDead {
				st.frec.Record("health", o.meshName, fmt.Sprintf("quorum dead: %d/%d members alive", h.Alive, h.Total), int64(h.Alive))
				st.frec.Trip("quorum-dead", fmt.Sprintf("%s sees %d/%d alive", o.meshName, h.Alive, h.Total))
			}
		})
	}
	st.watch(mem.Subsystem())

	// Admin/metrics listener comes up before the (blocking) mesh
	// formation so probes can watch the mesh assemble.
	maddr, err := st.serve(obsConfig{mem: mem})
	if err != nil {
		return err
	}
	if maddr != "" {
		fmt.Printf("pianode: mesh health on http://%s/healthz, migration admin on http://%s/migrate\n",
			maddr, maddr)
	}

	others := make(map[string]string, len(peers))
	for name, addr := range peers {
		if name != o.meshName {
			others[name] = addr
		}
	}
	if err := mem.Start(others); err != nil {
		return err
	}
	fmt.Printf("pianode: mesh up: %d members, leader %q\n", len(names), mem.Leader())

	if o.meshMigrate != "" {
		comp, dest, at, err := parseMigrate(o.meshMigrate)
		if err != nil {
			return err
		}
		if mem.IsLeader() {
			if err := mem.MigrateAt(at, comp, dest); err != nil {
				return err
			}
			fmt.Printf("pianode: migration of %q to %q scheduled at vt=%d\n", comp, dest, int64(at))
		} else {
			log.Print("pianode: -mesh-migrate ignored on a follower; pass it to the leader (or POST /migrate to any member)")
		}
	}

	until := vtime.Time(o.meshUntil.Nanoseconds())
	if o.meshUntil <= 0 {
		until = params.Horizon()
	}
	done := make(chan error, 1)
	go func() {
		if mem.IsLeader() {
			done <- mem.Lead(until, vtime.Duration(o.meshStep.Nanoseconds()))
		} else {
			done <- mem.Wait()
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case err := <-done:
		if err != nil {
			return err
		}
	case <-sig:
		fmt.Println("pianode: interrupted")
		mem.Close()
		<-done
		return nil
	}

	ms := mem.Stats()
	fmt.Printf("pianode: mesh run complete: rounds=%d reissues=%d migrations=%d epoch=%d\n",
		ms.Rounds, ms.Reissues, ms.Migrations, ms.Epoch)
	if ms.Migrations > 0 {
		fmt.Printf("pianode: last migration: virtual downtime=%dns wall=%s epoch_propagation=%s\n",
			int64(ms.MigrationVirtual), ms.MigrationWall, ms.EpochPropagation)
	}
	digs := mem.Digests()
	comps := make([]string, 0, len(digs))
	for c := range digs {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		fmt.Printf("pianode: digest %s=%016x\n", c, digs[c])
	}
	st.writeTimeline()
	return nil
}

// parsePeers parses the static member list. Entries are
// name=host:port; a bare host:port gets a deterministic name derived
// from the address so every member derives the same set.
func parsePeers(s string) (map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("pianode: mesh mode needs -peers name=host:port[,name=host:port...]")
	}
	peers := make(map[string]string)
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, addr, ok := strings.Cut(ent, "=")
		if !ok {
			name, addr = "m-"+strings.NewReplacer(":", "-", "/", "-").Replace(ent), ent
		}
		if name == "" || addr == "" {
			return nil, fmt.Errorf("pianode: bad -peers entry %q (want name=host:port)", ent)
		}
		if prev, dup := peers[name]; dup {
			return nil, fmt.Errorf("pianode: duplicate -peers name %q (%s and %s)", name, prev, addr)
		}
		peers[name] = addr
	}
	return peers, nil
}

// parseMigrate parses "component:dest@virtualtime" where virtualtime
// is a Go duration measured from virtual zero, e.g. "hot:bravo@50ms".
func parseMigrate(s string) (comp, dest string, at vtime.Time, err error) {
	spec, atStr, ok := strings.Cut(s, "@")
	if !ok {
		return "", "", 0, fmt.Errorf("pianode: bad -mesh-migrate %q (want component:dest@virtualtime)", s)
	}
	comp, dest, ok = strings.Cut(spec, ":")
	if !ok || comp == "" || dest == "" {
		return "", "", 0, fmt.Errorf("pianode: bad -mesh-migrate %q (want component:dest@virtualtime)", s)
	}
	d, err := time.ParseDuration(atStr)
	if err != nil {
		return "", "", 0, fmt.Errorf("pianode: bad -mesh-migrate time %q: %v", atStr, err)
	}
	return comp, dest, vtime.Time(d.Nanoseconds()), nil
}

// reportLine renders one structured run-report line from the node's
// race-safe accessors: virtual progress, scheduler counters, wire
// and session totals. One line per -report interval, logfmt-style,
// so a long-running vendor node can be tailed without a scraper.
func reportLine(sub *core.Subsystem, n *node.Node) string {
	now, key := sub.PublishedTimes()
	st := sub.Stats()
	ws := n.WireStats()
	rs := n.ResilienceStats()
	total, alive := n.SessionHealth()
	keyStr := "inf"
	if key != vtime.Infinity {
		keyStr = fmt.Sprintf("%d", int64(key))
	}
	return fmt.Sprintf("pia-report t=%s vnow=%d vnext=%s steps=%d deliveries=%d drives=%d stalls=%d par_rounds=%d "+
		"frames_out=%d frames_in=%d bytes_out=%d bytes_in=%d sessions=%d/%d epoch_deaths=%d resumes=%d rewinds=%d",
		time.Now().UTC().Format("15:04:05.000"), int64(now), keyStr,
		st.Steps, st.Deliveries, st.Drives, st.Stalls, st.ParRounds,
		ws.FramesOut, ws.FramesIn, ws.BytesOut, ws.BytesIn,
		alive, total, rs.EpochDeaths, rs.Resumes, rs.Rewinds)
}
