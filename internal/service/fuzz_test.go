package service

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSessionSpec drives a create request's body, as JSON or as a form,
// through specFromRequest and newWorkload: neither may panic, every
// refusal is a specError, and every spec admitted has a positive
// footprint no larger than the shape caps allow.
func FuzzSessionSpec(f *testing.F) {
	maxFootprint := max(int64(maxFanout+2)*32<<10, int64(maxPageKB)<<10*int64(maxImages+1)+256<<10)
	for _, seed := range []struct {
		body string
		json bool
	}{
		{"workload=modemsite&page_kb=137438953472&images=131071", false},
		{"fanout=1024&rounds=1000000&work_iters=1048576&seed=-3", false},
		{`{"workload":"modemsite","page_kb":9007199254740992}`, true},
		{`{"workload":"modemsite","page_kb":65536,"images":1024,"level":"wordLevel"}`, true},
		{`{"work_iters":1099511627776,"auto_run":true}`, true},
	} {
		f.Add(seed.body, seed.json)
	}
	f.Fuzz(func(t *testing.T, body string, asJSON bool) {
		r := httptest.NewRequest("POST", "/sessions", strings.NewReader(body))
		r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		if asJSON {
			r.Header.Set("Content-Type", "application/json")
		}
		spec, err := specFromRequest(r)
		if err != nil {
			return
		}
		w, err := newWorkload(&spec)
		if err != nil {
			if !errors.Is(err, errBadSpec) {
				t.Fatalf("spec %+v refused with %v, not a SpecError", spec, err)
			}
			return
		}
		if fp := w.Footprint(); fp <= 0 || fp > maxFootprint {
			t.Fatalf("spec %+v admitted with footprint %d, want 0 < footprint <= %d", spec, fp, maxFootprint)
		}
	})
}
