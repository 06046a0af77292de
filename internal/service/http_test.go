package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

func doReq(t *testing.T, h http.Handler, method, path string, form url.Values) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var req *http.Request
	if form != nil {
		req = httptest.NewRequest(method, path, strings.NewReader(form.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var body map[string]any
	// The mux's own 405 responses are plain text; everything the
	// handler writes itself is JSON.
	if rr.Body.Len() > 0 && strings.HasPrefix(rr.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %s: bad JSON body %q: %v", method, path, rr.Body.String(), err)
		}
	}
	return rr, body
}

func TestHTTPSessionAPI(t *testing.T) {
	c := NewCatalog(Config{})
	defer c.Close()
	h := Handler(c)

	// Create with form params.
	rr, body := doReq(t, h, "POST", "/sessions", url.Values{"id": {"web-1"}, "seed": {"42"}, "rounds": {"5"}})
	if rr.Code != http.StatusCreated || body["id"] != "web-1" || body["state"] != "ready" {
		t.Fatalf("create: %d %v", rr.Code, body)
	}

	// Create with a JSON body.
	req := httptest.NewRequest("POST", "/sessions", strings.NewReader(`{"id":"web-2","seed":7}`))
	req.Header.Set("Content-Type", "application/json")
	rr2 := httptest.NewRecorder()
	h.ServeHTTP(rr2, req)
	if rr2.Code != http.StatusCreated {
		t.Fatalf("json create: %d %s", rr2.Code, rr2.Body.String())
	}

	// List sees both, sorted.
	rr, body = doReq(t, h, "GET", "/sessions", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("list: %d", rr.Code)
	}
	sessions := body["sessions"].([]any)
	if len(sessions) != 2 {
		t.Fatalf("list: %v", body)
	}

	// Step with an explicit virtual quantum, then to completion.
	rr, body = doReq(t, h, "POST", "/sessions/web-1/step", url.Values{"until": {"20ms"}})
	if rr.Code != http.StatusOK || body["rev"].(float64) != 2 {
		t.Fatalf("step: %d %v", rr.Code, body)
	}
	rr, body = doReq(t, h, "POST", "/sessions/web-1/step", nil)
	if rr.Code != http.StatusOK || body["state"] != "done" {
		t.Fatalf("step to done: %d %v", rr.Code, body)
	}
	digest := body["drive_digest"].(string)
	if digest == "" || digest == "0000000000000000" {
		t.Fatalf("empty digest after run: %v", body)
	}

	// Get reflects the final state.
	rr, body = doReq(t, h, "GET", "/sessions/web-1", nil)
	if rr.Code != http.StatusOK || body["drive_digest"] != digest {
		t.Fatalf("get: %d %v", rr.Code, body)
	}

	// Delete (with CAS) removes it.
	rev := body["rev"].(float64)
	rr, _ = doReq(t, h, "DELETE", "/sessions/web-1?rev=999", nil)
	if rr.Code != http.StatusConflict {
		t.Fatalf("stale delete: %d", rr.Code)
	}
	rr, _ = doReq(t, h, "DELETE", (&url.URL{Path: "/sessions/web-1", RawQuery: url.Values{"rev": {jsonNum(rev)}}.Encode()}).String(), nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("delete: %d", rr.Code)
	}
	rr, _ = doReq(t, h, "GET", "/sessions/web-1", nil)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", rr.Code)
	}
}

// TestAutoRunDefaultEncodingParity: the same logical create request
// must resolve the same auto_run whether it arrives as a JSON body or
// as form/query parameters — the modemsite free-running default lives
// in newWorkload, shared by both decode paths.
func TestAutoRunDefaultEncodingParity(t *testing.T) {
	jsonReq := func(body string) *http.Request {
		r := httptest.NewRequest("POST", "/sessions", strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		return r
	}
	formReq := func(query string) *http.Request {
		return httptest.NewRequest("POST", "/sessions?"+query, nil)
	}
	cases := []struct {
		name string
		req  *http.Request
		want bool
	}{
		{"json modemsite default", jsonReq(`{"workload":"modemsite"}`), true},
		{"form modemsite default", formReq("workload=modemsite"), true},
		{"json modemsite explicit off", jsonReq(`{"workload":"modemsite","auto_run":false}`), false},
		{"form modemsite explicit off", formReq("workload=modemsite&run=false"), false},
		{"json fan default", jsonReq(`{"workload":"fan"}`), false},
		{"form fan explicit on", formReq("workload=fan&run=true"), true},
	}
	for _, tc := range cases {
		spec, err := specFromRequest(tc.req)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if _, err := newWorkload(&spec); err != nil {
			t.Fatalf("%s: newWorkload: %v", tc.name, err)
		}
		if spec.AutoRun == nil || *spec.AutoRun != tc.want {
			t.Fatalf("%s: auto_run resolved to %v, want %v", tc.name, spec.AutoRun, tc.want)
		}
	}
}

func jsonNum(f float64) string {
	b, _ := json.Marshal(uint64(f))
	return string(b)
}

// TestSpecCaps: a shape past its cap is a bad spec, refused before a
// footprint is computed from it. Uncapped, page_kb 2^37 with 131071
// images wrapped the footprint to 256 KB, under any session budget, for
// a server page of 2^47 bytes, and page_kb 2^53 made it negative.
func TestSpecCaps(t *testing.T) {
	specs := []Spec{
		{Workload: workloadModemSite, PageKB: 1 << 37, Images: 131071},
		{Workload: workloadModemSite, PageKB: 1 << 53},
		{Workload: workloadModemSite, PageKB: maxPageKB + 1},
		{Workload: workloadModemSite, Images: maxImages + 1},
		{WorkIters: maxWorkIters + 1},
	}
	for _, spec := range specs {
		w, err := newWorkload(&spec)
		var se *specError
		if !errors.As(err, &se) {
			t.Fatalf("spec %+v: got %+v, %v; want a SpecError", spec, w, err)
		}
	}
	// Over HTTP the first is a 400 that leaves no session behind.
	c := NewCatalog(Config{Limits: Limits{MaxSessionMemBytes: 64 << 20}})
	defer c.Close()
	rr, body := doReq(t, Handler(c), "POST", "/sessions",
		url.Values{"workload": {"modemsite"}, "page_kb": {"137438953472"}, "images": {"131071"}})
	if rr.Code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(body["error"]), "page_kb 137438953472 exceeds") {
		t.Fatalf("create past the page cap: code %d, body %v", rr.Code, body)
	}
	if infos, _ := c.List(); len(infos) != 0 {
		t.Fatalf("a refused create left %d sessions", len(infos))
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	c := NewCatalog(Config{Limits: Limits{MaxSessions: 1}})
	defer c.Close()
	h := Handler(c)

	cases := []struct {
		method, path string
		form         url.Values
		want         int
	}{
		{"PUT", "/sessions", nil, http.StatusMethodNotAllowed},
		{"PATCH", "/sessions/x", nil, http.StatusMethodNotAllowed},
		{"GET", "/sessions/ghost", nil, http.StatusNotFound},
		{"DELETE", "/sessions/ghost", nil, http.StatusNotFound},
		{"POST", "/sessions/ghost/step", nil, http.StatusNotFound},
		{"POST", "/sessions", url.Values{"workload": {"nonesuch"}}, http.StatusBadRequest},
		{"POST", "/sessions", url.Values{"seed": {"not-a-number"}}, http.StatusBadRequest},
		{"POST", "/sessions", url.Values{"fanout": {"many"}}, http.StatusBadRequest},
		{"POST", "/sessions", url.Values{"run": {"maybe"}}, http.StatusBadRequest},
		{"POST", "/sessions", url.Values{"workload": {"modemsite"}, "level": {"packetlevel"}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rr, body := doReq(t, h, tc.method, tc.path, tc.form)
		if rr.Code != tc.want {
			t.Fatalf("%s %s: code %d, want %d (%v)", tc.method, tc.path, rr.Code, tc.want, body)
		}
		if tc.want != http.StatusMethodNotAllowed && body["error"] == "" {
			t.Fatalf("%s %s: no error body", tc.method, tc.path)
		}
	}

	// A create body past maxSpecBytes is a bad spec in either encoding,
	// refused before it is buffered.
	big := strings.Repeat("x", maxSpecBytes)
	for _, ct := range []string{"application/json", "application/x-www-form-urlencoded"} {
		body := "id=" + big
		if ct == "application/json" {
			body = `{"id":"` + big + `"}`
		}
		req := httptest.NewRequest("POST", "/sessions", strings.NewReader(body))
		req.Header.Set("Content-Type", ct)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "too large") {
			t.Fatalf("oversized %s create: code %d, body %s", ct, rr.Code, rr.Body)
		}
	}
	if infos, _ := c.List(); len(infos) != 0 {
		t.Fatalf("oversized creates left %d sessions", len(infos))
	}

	// Fill the catalog: the next create is a budget rejection, 429.
	if rr, _ := doReq(t, h, "POST", "/sessions", url.Values{"id": {"only"}}); rr.Code != http.StatusCreated {
		t.Fatalf("create: %d", rr.Code)
	}
	rr, body := doReq(t, h, "POST", "/sessions", nil)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over budget: %d %v", rr.Code, body)
	}

	// Duplicate id → 409, bad step params → 400, stale rev → 409.
	if rr, _ := doReq(t, h, "POST", "/sessions", url.Values{"id": {"only"}}); rr.Code != http.StatusConflict {
		t.Fatalf("duplicate: %d", rr.Code)
	}
	if rr, _ := doReq(t, h, "POST", "/sessions/only/step", url.Values{"until": {"yesterday"}}); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad until: %d", rr.Code)
	}
	if rr, _ := doReq(t, h, "POST", "/sessions/only/step", url.Values{"rev": {"-3"}}); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad rev: %d", rr.Code)
	}
	if rr, _ := doReq(t, h, "POST", "/sessions/only/step", url.Values{"rev": {"77"}}); rr.Code != http.StatusConflict {
		t.Fatalf("stale rev: %d", rr.Code)
	}
}
