package service

import (
	"errors"
	"testing"

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
