package service

import (
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/vtime"
)

// maxSpecBytes caps the body of a create request. A Spec is a handful
// of short fields; anything larger is refused as a bad spec before it
// is buffered.
const maxSpecBytes = 64 << 10

// Handler serves the session API over the catalog:
//
//	POST   /sessions            create (form or JSON body: Spec fields)
//	GET    /sessions            list
//	GET    /sessions/{id}       inspect
//	DELETE /sessions/{id}       stop   (?rev= CAS)
//	POST   /sessions/{id}/step  advance (?until=20ms virtual, ?rev= CAS)
//
// Typed catalog errors map to status codes: not-found 404, conflict
// 409, budget 429, bad spec 400, catalog closed 503.
func Handler(c *Catalog) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxSpecBytes)
		spec, err := specFromRequest(r)
		if err != nil {
			writeError(w, err)
			return
		}
		info, err := c.Create(spec)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		infos, rev := c.List()
		writeJSON(w, http.StatusOK, map[string]any{"rev": rev, "sessions": infos})
	})
	mux.HandleFunc("GET /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := c.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		rev, err := revParam(r)
		if err != nil {
			writeError(w, err)
			return
		}
		info, err := c.Stop(r.PathValue("id"), rev)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /sessions/{id}/step", func(w http.ResponseWriter, r *http.Request) {
		rev, err := revParam(r)
		if err != nil {
			writeError(w, err)
			return
		}
		var until vtime.Duration
		if v := r.FormValue("until"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				writeError(w, &specError{Reason: "until must be a non-negative duration (virtual), e.g. until=20ms"})
				return
			}
			until = vtime.Duration(d.Nanoseconds())
		}
		info, err := c.Step(r.PathValue("id"), rev, until)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	return mux
}

// specFromRequest decodes a create request: a JSON Spec body when
// Content-Type says so, otherwise form/query parameters.
func specFromRequest(r *http.Request) (Spec, error) {
	var spec Spec
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return Spec{}, &specError{Reason: "bad JSON body: " + err.Error()}
		}
		return spec, nil
	}
	if err := r.ParseForm(); err != nil {
		return Spec{}, &specError{Reason: "bad form: " + err.Error()}
	}
	spec.ID = r.Form.Get("id")
	spec.Workload = r.Form.Get("workload")
	spec.Level = r.Form.Get("level")
	for _, f := range []struct {
		key string
		dst *int
	}{
		{"fanout", &spec.Fanout},
		{"rounds", &spec.Rounds},
		{"work_iters", &spec.WorkIters},
		{"page_kb", &spec.PageKB},
		{"images", &spec.Images},
	} {
		v := r.Form.Get(f.key)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return Spec{}, &specError{Reason: f.key + " must be an integer"}
		}
		*f.dst = n
	}
	if v := r.Form.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return Spec{}, &specError{Reason: "seed must be an integer"}
		}
		spec.Seed = n
	}
	if v := r.Form.Get("run"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return Spec{}, &specError{Reason: "run must be a boolean"}
		}
		spec.AutoRun = &b
	}
	// Workload-dependent auto_run defaults live in newWorkload so
	// JSON-body creates resolve identically.
	return spec, nil
}

func revParam(r *http.Request) (uint64, error) {
	v := r.FormValue("rev")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, &specError{Reason: "rev must be a non-negative integer"}
	}
	return n, nil
}

// writeError maps typed catalog errors onto status codes and writes
// a JSON error body.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, errNotFound):
		code = http.StatusNotFound
	case errors.Is(err, errConflict):
		code = http.StatusConflict
	case errors.Is(err, ErrOverBudget):
		code = http.StatusTooManyRequests
	case errors.Is(err, errBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, errClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("service: writing response: %v", err)
	}
}
