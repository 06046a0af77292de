// Chaos: the WubbleU hand-held browser split across two Pia nodes —
// the paper's geographically distributed setup — with the cross-node
// link deliberately misbehaving. The page loads twice: once over
// clean loopback TCP, once with seeded WAN faults (drops,
// duplicates, reorders, corruption, jitter, one scripted
// partition/heal cycle) injected under a resilient session layer
// that reconnects and replays. The same -seed reproduces the same
// misbehaviour frame for frame, and the simulated load comes out
// bit-identical either way: WAN trouble costs wall clock, never
// simulation results.
//
//	go run ./examples/chaos [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	pia "repro"
	"repro/internal/experiments"
	"repro/internal/wubbleu"
)

// appConfig is a small page at word level: every 4-byte word of the
// transfer is an event on the faulty link, so there is plenty of
// traffic to misbehave with.
func appConfig() wubbleu.Config {
	cfg := wubbleu.DefaultConfig()
	cfg.PageSize = 4 * 1024
	cfg.Images = 1
	cfg.Level = pia.LevelWord
	return cfg
}

// leg runs the split load once and returns the result plus the two
// nodes, so the caller can read fault and recovery counters.
func leg(seed int64, faulty bool) (res wubbleu.Result, wall time.Duration, n1, n2 *pia.Node, err error) {
	cfg := appConfig()
	b := pia.NewSystem("wubbleu-chaos")
	app, err := wubbleu.Install(b, cfg, wubbleu.RemotePlacement())
	if err != nil {
		return res, 0, nil, nil, err
	}
	b.SetDefaultChannel(pia.Conservative, pia.LoopbackLink)
	if faulty {
		b.SetFaults(experiments.DefaultChaosFaults(seed))
		b.SetResilience(experiments.DefaultChaosResilience())
	}

	n1, n2 = pia.NewNode("handheld-node"), pia.NewNode("modem-node")
	cl, err := b.BuildOnNodes(map[string]*pia.Node{"handheld": n1, "modemsite": n2})
	if err != nil {
		return res, 0, nil, nil, err
	}
	defer cl.Close()
	start := time.Now()
	if err := cl.Run(pia.Time(pia.Seconds(10))); err != nil {
		return res, 0, nil, nil, err
	}
	return app.Result(), time.Since(start), n1, n2, nil
}

func main() {
	seed := flag.Int64("seed", 1, "fault schedule seed")
	flag.Parse()

	clean, cleanWall, _, _, err := leg(*seed, false)
	if err != nil {
		log.Fatal(err)
	}
	faulty, faultyWall, n1, n2, err := leg(*seed, true)
	if err != nil {
		log.Fatal(err)
	}

	var faults pia.FaultStats
	var resil pia.ResilienceStats
	for _, n := range []*pia.Node{n1, n2} {
		for _, st := range n.FaultStats() {
			faults.Add(st)
		}
		resil.Add(n.ResilienceStats())
	}

	fmt.Printf("clean:  loaded %q in %v virtual, %d DMA drives, %v wall\n",
		appConfig().URL, clean.LoadVirt[0], clean.DMADrives, cleanWall)
	fmt.Printf("faulty: loaded %q in %v virtual, %d DMA drives, %v wall (seed %d)\n",
		appConfig().URL, faulty.LoadVirt[0], faulty.DMADrives, faultyWall, *seed)
	fmt.Printf("injected: %d/%d frames faulted (%d dropped, %d duplicated, %d reordered, %d corrupted, %d cuts)\n",
		faults.Dropped+faults.Duplicated+faults.Reordered+faults.Corrupted+faults.Cuts,
		faults.Frames, faults.Dropped, faults.Duplicated, faults.Reordered, faults.Corrupted, faults.Cuts)
	fmt.Printf("recovered: %d epoch deaths, %d resumes, %d envelopes replayed, %d rewinds\n",
		resil.EpochDeaths, resil.Resumes, resil.ReplayedFrames, resil.Rewinds)

	if clean.LoadVirt[0] != faulty.LoadVirt[0] || clean.DMADrives != faulty.DMADrives {
		log.Fatalf("INVARIANT VIOLATED: clean (%v, %d drives) vs faulty (%v, %d drives)",
			clean.LoadVirt[0], clean.DMADrives, faulty.LoadVirt[0], faulty.DMADrives)
	}
	fmt.Println("invariant held: virtual load time and link drives identical under faults")
}
