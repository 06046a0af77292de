package experiments

import (
	"fmt"
	"testing"
	"time"

	pia "repro"
	"repro/internal/snapshot"
)

func TestSnapshotChainStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for iter := 0; iter < 60; iter++ {
		n := 2
		b := pia.NewSystem("snapchain")
		src := &burster{Count: 50, Period: 20}
		b.AddComponent("c0", sub(0), src, "out")
		fw := &forwarder{}
		b.AddComponent("c1", sub(1), fw, "in", "out")
		b.AddNet("w0", 0, "c0.out", "c1.in")
		term := &sink{}
		b.AddComponent("end", sub(1), term, "in")
		b.AddNet("wend", 0, "c1.out", "end.in")
		b.SetDefaultChannel(pia.Conservative, pia.LinkModel{Latency: 5, PerMessage: 1})
		sim, err := b.BuildLocal()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range sim.SubsystemNames() {
			sim.Agents[name].OnComplete = func(s *snapshot.Snapshot) {}
		}
		sim.Agents[sub(0)].Initiate()
		done := make(chan error, 1)
		go func() { done <- sim.Run(pia.Time(pia.Milliseconds(10))) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			sim.Close()
		case <-time.After(3 * time.Second):
			for _, name := range sim.SubsystemNames() {
				s := sim.Subsystem(name)
				now, key := s.PublishedTimes()
				fmt.Printf("%s now=%v key=%v\n", name, now, key)
				for _, ep := range sim.Hubs[name].Endpoints() {
					fmt.Println("  ", ep.Name(), "bound", ep.Bound(), fmt.Sprintf("%+v", ep.Stats()))
				}
			}
			t.Fatalf("iter %d hung", iter)
		}
		_ = n
	}
}
