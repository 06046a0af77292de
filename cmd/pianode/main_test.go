package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/vtime"
)

// fakeHealth fabricates node session states the real node only
// reaches after a designer's link dies for good.
type fakeHealth struct {
	total, alive int
	rs           resilience.Stats
}

func (f fakeHealth) SessionHealth() (int, int)         { return f.total, f.alive }
func (f fakeHealth) ResilienceStats() resilience.Stats { return f.rs }

// fakeMesh scripts the migrator surface so /migrate and the mesh
// /healthz view can be driven without forming a three-node mesh.
type fakeMesh struct {
	placement  map[string]string
	members    []string
	health     mesh.Health
	migrateErr error
	requested  [][2]string
}

func (f *fakeMesh) Health() mesh.Health          { return f.health }
func (f *fakeMesh) Name() string                 { return "alpha" }
func (f *fakeMesh) Leader() string               { return "alpha" }
func (f *fakeMesh) Epoch() uint64                { return 3 }
func (f *fakeMesh) Placement() map[string]string { return f.placement }
func (f *fakeMesh) Members() []string            { return f.members }
func (f *fakeMesh) RequestMigration(comp, dest string) error {
	f.requested = append(f.requested, [2]string{comp, dest})
	return f.migrateErr
}

func get(t *testing.T, mux http.Handler, path string, hdr map[string]string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	var body map[string]any
	if strings.HasPrefix(rr.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, rr.Body.String(), err)
		}
	}
	return rr, body
}

func postForm(t *testing.T, mux http.Handler, path string, form url.Values) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	return rr
}

// TestMetricsContentNegotiation: Prometheus text is the default;
// JSON comes via ?format=json or an Accept header, and both forms
// carry the registered samples.
func TestMetricsContentNegotiation(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.AddCollector(func(emit func(metrics.Sample)) {
		emit(metrics.Sample{Name: "pia_test_total", Kind: metrics.KindCounter, Value: 7})
	})
	mux := newObsMux(obsConfig{reg: reg, health: fakeHealth{}})

	rr, _ := get(t, mux, "/metrics", nil)
	if rr.Code != http.StatusOK || !strings.HasPrefix(rr.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("default scrape: %d %q", rr.Code, rr.Header().Get("Content-Type"))
	}
	if !strings.Contains(rr.Body.String(), "pia_test_total 7") {
		t.Fatalf("prometheus body missing sample: %q", rr.Body.String())
	}

	for _, path := range []string{"/metrics?format=json", "/metrics"} {
		hdr := map[string]string{}
		if !strings.Contains(path, "json") {
			hdr["Accept"] = "application/json"
		}
		rr, _ := get(t, mux, path, hdr)
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s with %v: Content-Type %q", path, hdr, ct)
		}
		var doc struct {
			Metrics []map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s: bad JSON %q: %v", path, rr.Body.String(), err)
		}
		if len(doc.Metrics) != 1 || doc.Metrics[0]["name"] != "pia_test_total" {
			t.Fatalf("%s: samples %v", path, doc.Metrics)
		}
	}
}

// TestHealthzMatrix covers the status grid: session deficits degrade
// the probe with and without -resilient (a dead designer is a fact
// regardless of which wire protocol lost it), service mode folds in
// tenant liveness, and mesh mode switches to the membership view.
func TestHealthzMatrix(t *testing.T) {
	reg := metrics.NewRegistry()
	cases := []struct {
		name       string
		cfg        obsConfig
		wantCode   int
		wantStatus string
	}{
		{"all-alive", obsConfig{reg: reg, health: fakeHealth{total: 2, alive: 2}}, 200, "ok"},
		{"dead-session", obsConfig{reg: reg, health: fakeHealth{total: 2, alive: 1}}, 503, "degraded"},
		{"dead-session-resilient", obsConfig{reg: reg, health: fakeHealth{total: 2, alive: 1}, resilient: true}, 503, "degraded"},
		{"mesh-degraded", obsConfig{reg: reg, health: fakeHealth{}, mem: &fakeMesh{health: mesh.Health{Alive: 2, Total: 3}}}, 200, "degraded"},
		{"mesh-quorum-dead", obsConfig{reg: reg, health: fakeHealth{}, mem: &fakeMesh{health: mesh.Health{Alive: 1, Total: 3, QuorumDead: true}}}, 503, "quorum-dead"},
	}
	for _, tc := range cases {
		rr, body := get(t, newObsMux(tc.cfg), "/healthz", nil)
		if rr.Code != tc.wantCode || body["status"] != tc.wantStatus {
			t.Fatalf("%s: %d %v, want %d %q", tc.name, rr.Code, body, tc.wantCode, tc.wantStatus)
		}
	}
}

// TestHealthzServiceTenants: a healthy tenant reports 200 with the
// per-tenant section; an evicted tenant flips the probe to 503.
func TestHealthzServiceTenants(t *testing.T) {
	reg := metrics.NewRegistry()
	cat := service.NewCatalog(service.Config{Limits: service.Limits{MaxSteps: 1}, Metrics: reg})
	defer cat.Close()
	mux := newObsMux(obsConfig{reg: reg, health: fakeHealth{}, catalog: cat})

	info, err := cat.Create(service.Spec{ID: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	rr, body := get(t, mux, "/healthz", nil)
	if rr.Code != http.StatusOK || body["service"] != true {
		t.Fatalf("healthy tenant: %d %v", rr.Code, body)
	}
	tenants := body["tenants"].(map[string]any)
	if tenants["tenant-a"] != "ready" {
		t.Fatalf("tenant section: %v", tenants)
	}

	// Step across the 1-step budget: the tenant is evicted but stays
	// visible in the catalog, so the probe must degrade.
	_, err = cat.Step(info.ID, 0, 20*vtime.Millisecond)
	var be *service.BudgetError
	if !errors.As(err, &be) || !be.Evicted {
		t.Fatalf("step past budget: %v", err)
	}
	rr, body = get(t, mux, "/healthz", nil)
	if rr.Code != http.StatusServiceUnavailable || body["tenants_failed"].(float64) != 1 {
		t.Fatalf("evicted tenant: %d %v", rr.Code, body)
	}
}

// TestMigrateEndpoint drives the admin endpoint through its error
// paths and one accepted migration against a scripted mesh.
func TestMigrateEndpoint(t *testing.T) {
	fm := &fakeMesh{
		placement: map[string]string{"hot": "alpha"},
		members:   []string{"alpha", "bravo"},
	}
	reg := metrics.NewRegistry()
	mux := newObsMux(obsConfig{reg: reg, health: fakeHealth{}, mem: fm})

	if rr, _ := get(t, mux, "/migrate", nil); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /migrate: %d", rr.Code)
	}
	cases := []struct {
		form url.Values
		want int
	}{
		{url.Values{}, http.StatusBadRequest},
		{url.Values{"component": {"hot"}}, http.StatusBadRequest},
		{url.Values{"comp": {"hot"}, "dest": {"bravo"}}, http.StatusBadRequest}, // component= has no alias
		{url.Values{"component": {"nope"}, "dest": {"bravo"}}, http.StatusNotFound},
		{url.Values{"component": {"hot"}, "dest": {"ghost"}}, http.StatusNotFound},
		{url.Values{"component": {"hot"}, "dest": {"bravo"}}, http.StatusOK},
	}
	for _, tc := range cases {
		if rr := postForm(t, mux, "/migrate", tc.form); rr.Code != tc.want {
			t.Fatalf("POST /migrate %v: %d, want %d (%s)", tc.form, rr.Code, tc.want, rr.Body.String())
		}
	}
	if len(fm.requested) != 1 || fm.requested[0] != [2]string{"hot", "bravo"} {
		t.Fatalf("migrations requested: %v", fm.requested)
	}

	fm.migrateErr = errors.New("leader unreachable")
	if rr := postForm(t, mux, "/migrate", url.Values{"component": {"hot"}, "dest": {"bravo"}}); rr.Code != http.StatusBadGateway {
		t.Fatalf("failed forward: %d", rr.Code)
	}
	// The leader's refusal is passed through with its reason, not
	// answered accepted:true.
	fm.migrateErr = fmt.Errorf("forwarding: %w", &mesh.Refused{Member: "alpha", Phase: "migrate", Reason: "16 migrations already wait"})
	rr := postForm(t, mux, "/migrate", url.Values{"component": {"hot"}, "dest": {"bravo"}})
	if rr.Code != http.StatusConflict || !strings.Contains(rr.Body.String(), "16 migrations already wait") {
		t.Fatalf("refused migration: %d %q, want 409 carrying the leader's reason", rr.Code, rr.Body.String())
	}
}

// TestSessionsMountedOnObsMux: service mode mounts the session API
// on the observability mux, with the API's own method and not-found
// handling intact behind the prefix.
func TestSessionsMountedOnObsMux(t *testing.T) {
	reg := metrics.NewRegistry()
	cat := service.NewCatalog(service.Config{Metrics: reg})
	defer cat.Close()
	mux := newObsMux(obsConfig{reg: reg, health: fakeHealth{}, catalog: cat})

	if rr := postForm(t, mux, "/sessions", url.Values{"id": {"s1"}}); rr.Code != http.StatusCreated {
		t.Fatalf("create via obs mux: %d %s", rr.Code, rr.Body.String())
	}
	rr, body := get(t, mux, "/sessions", nil)
	if rr.Code != http.StatusOK || len(body["sessions"].([]any)) != 1 {
		t.Fatalf("list via obs mux: %d %v", rr.Code, body)
	}
	if rr, _ := get(t, mux, "/sessions/ghost", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("ghost session: %d", rr.Code)
	}
	req := httptest.NewRequest("PUT", "/sessions", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /sessions: %d", rec.Code)
	}

	// The catalog's collector feeds the shared scrape: session labels
	// appear on the aggregated /metrics surface.
	rr, _ = get(t, mux, "/metrics", nil)
	if !strings.Contains(rr.Body.String(), `pia_service_sessions_live 1`) {
		t.Fatalf("scrape missing service gauges: %q", rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), `session="s1"`) {
		t.Fatalf("scrape missing tenant label: %q", rr.Body.String())
	}
}

// TestObsFlightAndWatchMounted: with a flight recorder wired,
// the obs mux serves the post-mortem dump on /debug/flight and the
// SSE stream on /watch; without them both paths 404.
func TestObsFlightAndWatchMounted(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := flight.New(8)
	rec.Record("session", "s1", "created", 0)
	mux := newObsMux(obsConfig{reg: reg, health: fakeHealth{}, rec: rec})

	rr, body := get(t, mux, "/debug/flight", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /debug/flight: %d %s", rr.Code, rr.Body.String())
	}
	if tripped, ok := body["tripped"].(bool); !ok || tripped {
		t.Fatalf("dump tripped = %v, want false", body["tripped"])
	}
	if n, _ := body["recorded_total"].(float64); n != 1 {
		t.Fatalf("dump recorded_total = %v, want 1", body["recorded_total"])
	}

	// A /watch subscriber whose request is already cancelled gets the
	// hello frame and a clean stream end — enough to prove the SSE
	// endpoint is mounted without holding a live stream open.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/watch", nil).WithContext(ctx)
	wrr := httptest.NewRecorder()
	mux.ServeHTTP(wrr, req)
	if wrr.Code != http.StatusOK || !strings.Contains(wrr.Body.String(), "event: hello") {
		t.Fatalf("GET /watch: %d %q", wrr.Code, wrr.Body.String())
	}
	if ct := wrr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("GET /watch content-type %q", ct)
	}

	// Without the flight stack the endpoints are simply not mounted.
	bare := newObsMux(obsConfig{reg: reg, health: fakeHealth{}})
	if rr, _ := get(t, bare, "/debug/flight", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("bare /debug/flight: %d", rr.Code)
	}
	if rr, _ := get(t, bare, "/watch", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("bare /watch: %d", rr.Code)
	}
}
