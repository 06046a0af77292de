package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

// remoteVirt is the virtual time of one 8 KB page load by a handheld
// dialing a modem site, at each level: what `pianode -page 8` and
// `wubbleu -remote ... -page 8` print.
var remoteVirt = map[string]vtime.Duration{
	proto.LevelWord:   223_399_111,
	proto.LevelPacket: 182_600_289,
}

// designer runs one handheld against the node at addr, as `wubbleu
// -remote` does, and returns what its page loads came to and the
// counters of its channel. With a relay, the designer dials the node
// through it, runs only until virtual time cut, and then has the relay
// cut its connection before the channel is closed, as the death of a
// designer's process or link does.
func designer(addr, level string, r *relay, cut vtime.Time) (wubbleu.Result, channel.Stats, error) {
	cfg := wubbleu.DefaultConfig()
	cfg.PageSize = 8 * 1024
	cfg.Level = level
	b := pia.NewSystem("wubbleu")
	app, err := wubbleu.Install(b, cfg, wubbleu.RemotePlacement())
	if err != nil {
		return wubbleu.Result{}, channel.Stats{}, err
	}
	sub, err := b.BuildSubsystem("handheld")
	if err != nil {
		return wubbleu.Result{}, channel.Stats{}, err
	}
	n := node.New("designer-node")
	defer n.Close()
	n.Host(sub)
	if r != nil {
		addr = r.ln.Addr().String()
	}
	ep, err := n.Connect("handheld", addr, "modemsite", pia.Conservative, pia.LoopbackLink)
	if err != nil {
		return wubbleu.Result{}, channel.Stats{}, err
	}
	if err := ep.BindNet(sub.Net("dma"), "dma"); err != nil {
		return wubbleu.Result{}, channel.Stats{}, err
	}
	n.FinishAgents()
	// The handheld's components stay parked past a finite horizon.
	defer sub.Teardown()
	if r != nil {
		err := sub.Run(cut)
		r.cut()
		return app.Result(), ep.Stats(), err
	}
	if err := sub.Run(vtime.Time(10 * vtime.Second)); err != nil {
		return app.Result(), ep.Stats(), err
	}
	return app.Result(), ep.Stats(), n.CloseChannels()
}

// relay carries one TCP connection to a node until cut closes it.
type relay struct {
	ln   net.Listener
	mu   sync.Mutex
	ends []net.Conn
}

func newRelay(t *testing.T, to string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln}
	go func() {
		in, err := ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", to)
		if err != nil {
			in.Close()
			return
		}
		r.mu.Lock()
		r.ends = append(r.ends, in, out)
		r.mu.Unlock()
		go io.Copy(out, in)
		go io.Copy(in, out)
	}()
	return r
}

// cut closes the relay and both ends of the connection it carries.
func (r *relay) cut() {
	r.ln.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.ends {
		c.Close()
	}
}

// settle waits for the node to retire every tenant and for the
// goroutines to fall back to base, then checks that they did: no live
// tenant in the catalog, none of the ids it generated still hosted.
func settle(t *testing.T, st *stack, cat *service.Catalog, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for (cat.Stats().Live > 0 || runtime.NumGoroutine() > base) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cs := cat.Stats()
	if cs.Live != 0 {
		t.Errorf("%s: %d tenants live", what, cs.Live)
	}
	for i := int64(1); i <= cs.Created; i++ {
		if id := fmt.Sprintf("s-%d", i); st.node.Hosted(id) != nil {
			t.Errorf("%s: tenant %s still hosted", what, id)
		}
	}
	if st.node.Hosted("modemsite") != nil {
		t.Errorf("%s: a subsystem named modemsite is hosted", what)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%s: %d goroutines, %d before\n%s", what, n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestEveryDesignerGetsATenant serves the modem site at word and at
// packet level to designers one after the other, then two at once, and
// cuts one designer's link mid-page. Each designer that finishes reads
// the same virtual time as a designer alone; the one cut off fails
// only its own tenant. After each case the node hosts no tenant and
// runs no goroutine beyond the ones it served with before.
func TestEveryDesignerGetsATenant(t *testing.T) {
	for _, level := range []string{proto.LevelWord, proto.LevelPacket} {
		o, set := parseOptions(t, "-listen 127.0.0.1:0 -page 8 -level "+level)
		if err := o.validate(set); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		st, cat, addr, err := openService(o)
		if err != nil {
			t.Fatal(err)
		}
		serving := runtime.NumGoroutine()
		check := func(res wubbleu.Result, err error, what string) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", level, what, err)
			}
			if res.Loads != 1 || res.PageBytes[0] != 8*1024 || res.LoadVirt[0] != remoteVirt[level] {
				t.Errorf("%s %s: %d loads, %v bytes in %v, want 1 load of 8192 bytes in %v",
					level, what, res.Loads, res.PageBytes, res.LoadVirt, remoteVirt[level])
			}
		}

		for i := 1; i <= 2; i++ {
			res, _, err := designer(addr, level, nil, 0)
			check(res, err, fmt.Sprintf("designer %d", i))
			settle(t, st, cat, serving, level+" after designer "+fmt.Sprint(i))
		}

		type outcome struct {
			res wubbleu.Result
			err error
		}
		done := make(chan outcome, 2)
		for range 2 {
			go func() {
				res, _, err := designer(addr, level, nil, 0)
				done <- outcome{res, err}
			}()
		}
		for range 2 {
			r := <-done
			check(r.res, r.err, "concurrent designer")
		}
		settle(t, st, cat, serving, level+" after two designers at once")

		// 150 ms falls inside the page at either level.
		res, chs, err := designer(addr, level, newRelay(t, addr), vtime.Time(150*vtime.Millisecond))
		if err != nil || res.Loads != 0 || chs.DataIn == 0 {
			t.Errorf("%s cut designer: %d loads and %d drives in, %v; want a page begun, not loaded", level, res.Loads, chs.DataIn, err)
		}
		settle(t, st, cat, serving, level+" after a designer was cut")

		if cs := cat.Stats(); cs.Created != 5 || cs.Stopped != 4 || cs.Failed != 1 {
			t.Errorf("%s: catalog %+v, want 5 created, 4 stopped, 1 failed", level, cs)
		}
		if line := reportLine(st.node, cat); !strings.Contains(line, " tenants=0 created=5 stopped=4 failed=1 ") {
			t.Errorf("%s: report line %q", level, line)
		}
		cat.Close()
		st.close()
		settle(t, st, cat, before, level+" after the node closed")
	}
}

// TestServiceNodeMetrics: a serving node's /metrics carries the node's
// own series, its wire counters among them, and a designer served and
// retired leaves nothing behind in the shared registry: the scrape
// after a second designer has the series the scrape after the first
// had.
func TestServiceNodeMetrics(t *testing.T) {
	o, set := parseOptions(t, "-listen 127.0.0.1:0 -page 8 -level "+proto.LevelWord+" -metrics 127.0.0.1:0")
	if err := o.validate(set); err != nil {
		t.Fatal(err)
	}
	st, cat, addr, err := openService(o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	defer cat.Close()
	mux := newObsMux(obsConfig{reg: st.reg, health: st.node, catalog: cat})
	serving := runtime.NumGoroutine()
	var series [2][]string
	for i := range series {
		if _, _, err := designer(addr, proto.LevelWord, nil, 0); err != nil {
			t.Fatalf("designer %d: %v", i+1, err)
		}
		settle(t, st, cat, serving, fmt.Sprintf("after designer %d", i+1))
		rr, _ := get(t, mux, "/metrics", nil)
		for _, line := range strings.Split(rr.Body.String(), "\n") {
			if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				series[i] = append(series[i], name)
			}
		}
		if !slices.Contains(series[i], `pia_wire_bytes_out{node="service-node"}`) {
			t.Fatalf("after designer %d the scrape has no node wire counters:\n%s", i+1, rr.Body.String())
		}
	}
	if !slices.Equal(series[0], series[1]) {
		t.Errorf("the second designer changed the scrape's series:\nfirst  %v\nsecond %v", series[0], series[1])
	}
}
