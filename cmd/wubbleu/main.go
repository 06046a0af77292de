// wubbleu runs the paper's WubbleU page-load experiment from the
// command line: locally (the whole design in one subsystem), locally
// distributed (two subsystems bridged in-process), or against a
// remote pianode serving the modem site.
//
//	wubbleu                               # local, packet level
//	wubbleu -level wordLevel              # local, word passage
//	wubbleu -remote 127.0.0.1:7777        # dial a pianode
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"time"

	pia "repro"
	"repro/internal/node"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

func main() {
	level := flag.String("level", "packetLevel", "DMA detail level (hardwareLevel|wordLevel|packetLevel)")
	remote := flag.String("remote", "", "address of a pianode serving the modem site (empty: simulate locally)")
	pageKB := flag.Int("page", 66, "page size in KB")
	images := flag.Int("images", 4, "images embedded in the page")
	loads := flag.Int("loads", 1, "page loads to perform")
	script := flag.String("script", "", "simulation run control file with switchpoint rules (local runs only)")

	// Deterministic fault injection on this side's egress, and the
	// resumable session protocol to survive it (remote runs only): the
	// flags pianode takes too — a resilient pianode needs a resilient
	// dialer.
	var links node.LinkFlags
	links.Register(flag.CommandLine)
	flag.Parse()

	cfg := wubbleu.DefaultConfig()
	cfg.PageSize = *pageKB * 1024
	cfg.Images = *images
	cfg.Loads = *loads
	cfg.Level = *level
	cfg.NoCache = *loads > 1

	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := conflict(*remote != "", set, &links); err != nil {
		log.Fatal(err)
	}
	if *remote == "" {
		runLocal(cfg, *script)
		return
	}
	runRemote(cfg, *remote, &links)
}

// conflict reports a flag given on the command line (set) that the
// chosen run cannot honour: a local run has no link to arm, a remote
// one no ASIC of its own to script. The two cannot both hold.
func conflict(remote bool, set []string, links *node.LinkFlags) error {
	if !remote && slices.ContainsFunc(set, links.Has) {
		return errors.New("wubbleu: -fault-*/-resilient apply to remote runs (local runs have no network link)")
	}
	if remote && slices.Contains(set, "script") {
		return errors.New("wubbleu: -script applies to local runs (the remote node owns the ASIC's runlevel)")
	}
	return nil
}

func runLocal(cfg wubbleu.Config, script string) {
	b := pia.NewSystem("wubbleu")
	app, err := wubbleu.Install(b, cfg, wubbleu.LocalPlacement())
	if err != nil {
		log.Fatal(err)
	}
	sim, err := b.BuildLocal()
	if err != nil {
		log.Fatal(err)
	}
	if script != "" {
		// The paper's "switchpoint defined in the simulation run
		// control file": rules like
		//   when browser >= 790_000_000: asic->packetLevel
		src, err := os.ReadFile(script)
		if err != nil {
			log.Fatal(err)
		}
		engine := sim.Engines["main"]
		if err := engine.LoadScript(string(src)); err != nil {
			log.Fatalf("wubbleu: %s: %v", script, err)
		}
		fmt.Printf("loaded %d switchpoints from %s\n", len(engine.Switchpoints()), script)
	}
	start := time.Now()
	if err := sim.Run(pia.Infinity); err != nil {
		log.Fatal(err)
	}
	report(app.Result(), cfg, time.Since(start), "local")
}

func runRemote(cfg wubbleu.Config, addr string, links *node.LinkFlags) {
	// This process hosts the handheld slice of the one description; the
	// pianode it dials hosts the modem site's.
	b := pia.NewSystem("wubbleu")
	app, err := wubbleu.Install(b, cfg, wubbleu.RemotePlacement())
	if err != nil {
		log.Fatal(err)
	}
	sub, err := b.BuildSubsystem("handheld")
	if err != nil {
		log.Fatal(err)
	}
	n := node.New("designer-node")
	if err := links.Apply(n); err != nil {
		log.Fatal(err)
	}
	n.Host(sub)
	ep, err := n.Connect("handheld", addr, "modemsite", pia.Conservative, pia.LoopbackLink)
	if err != nil {
		log.Fatal(err)
	}
	if err := ep.BindNet(sub.Net("dma"), "dma"); err != nil {
		log.Fatal(err)
	}
	n.FinishAgents()

	// Generous virtual horizon: radio time dominates.
	horizon := vtime.Time(vtime.Duration(int64(cfg.PageSize)*8*int64(vtime.Second)/cfg.RadioBitsPerSec) * 100 * vtime.Duration(cfg.Loads))
	start := time.Now()
	if err := sub.Run(horizon); err != nil {
		log.Fatal(err)
	}
	n.CloseChannels()
	n.Close()

	report(app.Result(), cfg, time.Since(start), "remote "+addr)
}

func report(res wubbleu.Result, cfg wubbleu.Config, wall time.Duration, where string) {
	fmt.Printf("WubbleU %s, %s, %d KB page\n", where, cfg.Level, cfg.PageSize/1024)
	if res.Loads != cfg.Loads {
		log.Fatalf("only %d/%d loads completed", res.Loads, cfg.Loads)
	}
	for i, d := range res.LoadVirt {
		fmt.Printf("  load %d: %v virtual time, %d bytes\n", i+1, d, res.PageBytes[i])
	}
	if res.DMADrives > 0 {
		fmt.Printf("  DMA drives on the switchable link: %d\n", res.DMADrives)
	}
	fmt.Printf("  simulation time (wall clock): %v\n", wall)
}
