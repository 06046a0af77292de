package service

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

// TestAttachOverSharedListener is the multiplexing proof: two
// modemsite tenants hosted behind ONE node listener, each addressed
// by its session id at the hello handshake, each co-simulating with
// its own designer-side handheld — and a dial naming an unknown or
// stopped session is rejected.
func TestAttachOverSharedListener(t *testing.T) {
	serviceNode := node.New("service-node")
	defer serviceNode.Close()
	addr, err := serviceNode.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(Config{Workers: 2, Node: serviceNode})
	defer c.Close()

	cfg := wubbleu.DefaultConfig()
	cfg.PageSize = 4 * 1024
	cfg.Images = 1
	autoRun := true
	spec := Spec{Workload: workloadModemSite, AutoRun: &autoRun,
		PageKB: cfg.PageSize / 1024, Images: cfg.Images}

	var infos []Info
	for i := 0; i < 2; i++ {
		info, err := c.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != stateRunning {
			t.Fatalf("auto_run session state %q, want running", info.State)
		}
		infos = append(infos, info)
	}

	// Dialing a session id nobody created must be refused at the
	// handshake.
	probe := node.New("probe")
	defer probe.Close()
	psub := core.NewSubsystem("probe-sub")
	probe.Host(psub)
	if _, err := probe.Connect("probe-sub", addr, "no-such-session", channel.Conservative, channel.LoopbackLink); err == nil {
		t.Fatal("connect to unknown session succeeded")
	}

	// Each designer runs a full WubbleU page load against its own
	// tenant, concurrently, over the one shared listener.
	type result struct {
		loads int
		err   error
	}
	results := make(chan result, len(infos))
	for _, info := range infos {
		go func(sessID string) {
			dn := node.New("designer-" + sessID)
			defer dn.Close()
			b := pia.NewSystem("wubbleu")
			app, err := wubbleu.Install(b, cfg, wubbleu.RemotePlacement())
			if err != nil {
				results <- result{err: err}
				return
			}
			hh, err := b.BuildSubsystem("handheld")
			if err != nil {
				results <- result{err: err}
				return
			}
			dn.Host(hh)
			ep, err := dn.Connect("handheld", addr, sessID, channel.Conservative, channel.LoopbackLink)
			if err != nil {
				results <- result{err: err}
				return
			}
			if err := ep.BindNet(hh.Net("dma"), "dma"); err != nil {
				results <- result{err: err}
				return
			}
			// Generous finite horizon, as the wubbleu CLI uses: the
			// handheld returns once its loads are done and the grant
			// horizon passes.
			if err := hh.Run(vtime.Time(10 * vtime.Second)); err != nil {
				results <- result{err: err}
				return
			}
			results <- result{loads: app.UI.Done}
		}(info.ID)
	}
	for range infos {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.loads == 0 {
			t.Fatal("designer completed no page loads")
		}
	}

	// Attach is a lifecycle event: the revision moved and the
	// attachment was counted.
	got, err := c.Get(infos[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attached == 0 || got.Rev <= infos[0].Rev {
		t.Fatalf("attach not recorded: %+v", got)
	}

	// Stopping a tenant retires its address: new dials are refused,
	// the other tenant is untouched.
	if _, err := c.Stop(infos[0].ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Connect("probe-sub", addr, infos[0].ID, channel.Conservative, channel.LoopbackLink); err == nil {
		t.Fatal("connect to stopped session succeeded")
	}
	if _, err := c.Get(infos[1].ID); err != nil {
		t.Fatalf("surviving tenant: %v", err)
	}
	if _, err := c.Stop(infos[1].ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stop(infos[1].ID, 0); !errors.Is(err, errNotFound) {
		t.Fatalf("double stop: %v", err)
	}
}

// TestDialCreatesATenant: a dial naming the modemsite workload is
// admitted as a tenant of its own under a generated id, a dial past
// the admission cap is refused with the budget's reason, and the
// tenant is retired, counted stopped, once its designer closes.
func TestDialCreatesATenant(t *testing.T) {
	serviceNode := node.New("service-node")
	defer serviceNode.Close()
	addr, err := serviceNode.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(Config{Node: serviceNode, Limits: Limits{MaxSessions: 1}, Dial: Spec{PageKB: 4, Images: 1}})
	defer c.Close()

	designer := node.New("designer")
	defer designer.Close()
	designer.Host(core.NewSubsystem("handheld"))
	if _, err := designer.Connect("handheld", addr, workloadModemSite, channel.Conservative, channel.LoopbackLink); err != nil {
		t.Fatal(err)
	}
	infos, _ := c.List()
	if len(infos) != 1 || infos[0].ID == workloadModemSite || infos[0].State != stateRunning || infos[0].Attached != 1 {
		t.Fatalf("after a dial the catalog holds %+v, want one running tenant under a generated id", infos)
	}
	if serviceNode.Hosted(infos[0].ID) == nil {
		t.Fatalf("tenant %s is not hosted", infos[0].ID)
	}

	probe := node.New("probe")
	defer probe.Close()
	probe.Host(core.NewSubsystem("handheld"))
	if _, err := probe.Connect("handheld", addr, workloadModemSite, channel.Conservative, channel.LoopbackLink); err == nil ||
		!strings.Contains(err.Error(), "sessions budget") {
		t.Fatalf("dial past the cap: %v, want the budget's refusal", err)
	}

	if err := designer.CloseChannels(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Live > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.Stats(); st.Live != 0 || st.Created != 1 || st.Stopped != 1 || st.Failed != 0 || st.Rejected != 1 {
		t.Fatalf("after the designer closed: %+v", st)
	}
	if serviceNode.Hosted(infos[0].ID) != nil {
		t.Fatalf("tenant %s is still hosted", infos[0].ID)
	}
}

// TestLostDesignerFailsTheTenant: a free-running tenant created over
// HTTP whose designer's connection dies without a close fails with the
// peer loss, where it used to read running over a run that had ended.
func TestLostDesignerFailsTheTenant(t *testing.T) {
	serviceNode := node.New("service-node")
	defer serviceNode.Close()
	addr, err := serviceNode.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(Config{Node: serviceNode})
	defer c.Close()
	info, err := c.Create(Spec{ID: "vendor-a", Workload: workloadModemSite, PageKB: 4, Images: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The designer reaches the node through a relay, whose cut is the
	// designer's link dying.
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	ends := make(chan net.Conn, 2)
	go func() {
		in, err := relay.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", addr)
		if err != nil {
			in.Close()
			return
		}
		ends <- in
		ends <- out
		go io.Copy(out, in)
		go io.Copy(in, out)
	}()
	designer := node.New("designer")
	defer designer.Close()
	designer.Host(core.NewSubsystem("handheld"))
	if _, err := designer.Connect("handheld", relay.Addr().String(), info.ID, channel.Conservative, channel.LoopbackLink); err != nil {
		t.Fatal(err)
	}
	(<-ends).Close()
	(<-ends).Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if got, _ := c.Get(info.ID); got.State != stateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := c.Get(info.ID)
	if err != nil || got.State != StateFailed || !strings.Contains(got.Error, "peer") {
		t.Fatalf("after the designer was lost: %+v, %v; want a failed tenant naming the peer loss", got, err)
	}
}
