package main

import (
	"bytes"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestBringUpTearDown stands the shared stack up and tears it down
// under each observer set — none, -metrics, -v, and everything that
// rides on the metrics listener — on ephemeral ports, and checks what a
// mode relies on: the pieces exist exactly when their flags ask, the
// observability surface answers, -v logs a recorded session event
// once, and close leaves no listener and no goroutine behind (and may
// be called twice).
func TestBringUpTearDown(t *testing.T) {
	dir := t.TempDir()
	tl, dumps := filepath.Join(dir, "tl.json"), filepath.Join(dir, "dumps")
	for _, argv := range []string{
		"",
		"-metrics 127.0.0.1:0",
		"-v",
		"-metrics 127.0.0.1:0 -pprof -timeline " + tl + " -flight-dump " + dumps + " -attrib-top 3 -resilient",
	} {
		before := runtime.NumGoroutine()
		o, set := parseOptions(t, argv)
		if err := o.validate(set); err != nil {
			t.Fatalf("pianode %s: %v", argv, err)
		}
		st, err := bringUp(o, "test-node")
		if err != nil {
			t.Fatalf("pianode %s: %v", argv, err)
		}
		metricsOn := o.metricsAddr != ""
		if (st.reg != nil) != metricsOn || (st.frec != nil) != metricsOn || (st.smp != nil) != metricsOn {
			t.Errorf("pianode %s: registry %v, flight recorder %v, sampler %v", argv, st.reg != nil, st.frec != nil, st.smp != nil)
		}
		if (st.node.Timeline() != nil) != (o.timelinePath != "" || o.verbose) {
			t.Errorf("pianode %s: timeline recorder %v", argv, st.node.Timeline() != nil)
		}
		if o.verbose {
			var logged bytes.Buffer
			log.SetOutput(&logged)
			st.node.Timeline().SessionEvent("chan:a>b", "lost", "probe")
			log.SetOutput(os.Stderr)
			if n := strings.Count(logged.String(), "chan:a>b: session lost probe"); n != 1 {
				t.Errorf("pianode %s: the session event reached the log %d times, want once:\n%s", argv, n, logged.String())
			}
		}
		sub := core.NewSubsystem("modemsite")
		st.node.Host(sub)
		st.watch(sub)
		if got := stormWatched(sub); got != metricsOn {
			t.Errorf("pianode %s: rollback-storm trigger installed = %v", argv, got)
		}
		addrs := make([]string, 0, 2)
		addr, err := st.node.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
		maddr, err := st.serve(obsConfig{})
		if err != nil || (maddr != "") != metricsOn {
			t.Fatalf("pianode %s: serve = %q, %v", argv, maddr, err)
		}
		if metricsOn {
			addrs = append(addrs, maddr)
			client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
			for _, path := range []string{"/healthz", "/metrics", "/debug/flight"} {
				resp, err := client.Get("http://" + maddr + path)
				if err != nil {
					t.Fatalf("pianode %s: GET %s: %v", argv, path, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("pianode %s: GET %s: %d", argv, path, resp.StatusCode)
				}
			}
		}
		st.writeTimeline()
		st.close()
		st.close()

		if _, err := os.Stat(tl); (err == nil) != (o.timelinePath != "") {
			t.Errorf("pianode %s: timeline file: %v", argv, err)
		}
		os.Remove(tl)
		if _, err := os.Stat(dumps); (err == nil) != (o.flightDump != "") {
			t.Errorf("pianode %s: flight dump directory: %v", argv, err)
		}
		for _, a := range addrs {
			if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
				c.Close()
				t.Errorf("pianode %s: %s still accepts connections after close", argv, a)
			}
		}
		// Goroutines wind down asynchronously once their listener or
		// stop channel closes; give them a moment before counting.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<16)
			t.Errorf("pianode %s: %d goroutines before, %d after close\n%s", argv, before, after, buf[:runtime.Stack(buf, true)])
		}
	}
}

// stormWatched reports whether an observer of sub takes its throttle
// collapses. The subsystem keeps its observers unexported, so the test
// reads them by reflection.
func stormWatched(sub *core.Subsystem) bool {
	obs := reflect.ValueOf(sub).Elem().FieldByName("observers")
	for i := range obs.Len() {
		if !obs.Index(i).FieldByName("ThrottleCollapse").IsNil() {
			return true
		}
	}
	return false
}
