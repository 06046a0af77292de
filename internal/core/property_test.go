package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vtime"
)

// randomSystem builds a randomized producer/consumer mesh from a
// seed: nProd producers with random periods and counts, nCons
// consumers, and random net wiring. Everything is derived from the
// seed, so two builds are identical.
func randomSystem(seed int64) (*Subsystem, []*consumer) {
	rng := rand.New(rand.NewSource(seed))
	s := NewSubsystem("prop")
	nProd := 1 + rng.Intn(4)
	nCons := 1 + rng.Intn(4)
	nNets := 1 + rng.Intn(3)

	nets := make([]*Net, nNets)
	for i := range nets {
		nets[i], _ = s.NewNet(fmt.Sprintf("n%d", i), vtime.Duration(rng.Intn(5)))
	}
	var cons []*consumer
	for i := 0; i < nCons; i++ {
		co := &consumer{}
		cons = append(cons, co)
		c, _ := s.NewComponent(fmt.Sprintf("cons%d", i), co, "in")
		s.Connect(nets[rng.Intn(nNets)], c.Port("in"))
	}
	for i := 0; i < nProd; i++ {
		pr := &producer{Count: 1 + rng.Intn(20), Period: vtime.Duration(1 + rng.Intn(30))}
		c, _ := s.NewComponent(fmt.Sprintf("prod%d", i), pr, "out")
		s.Connect(nets[rng.Intn(nNets)], c.Port("out"))
	}
	return s, cons
}

// signature summarizes a run for comparison.
func signature(cons []*consumer) string {
	sig := ""
	for i, co := range cons {
		sig += fmt.Sprintf("|%d:", i)
		for j, v := range co.Got {
			sig += fmt.Sprintf("%d@%d,", v, co.Times[j])
		}
	}
	return sig
}

// Property: simulation is deterministic — same seed, same delivery
// sequence with identical timestamps.
func TestDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		s1, c1 := randomSystem(seed)
		if err := s1.Run(vtime.Infinity); err != nil {
			return false
		}
		s2, c2 := randomSystem(seed)
		if err := s2.Run(vtime.Infinity); err != nil {
			return false
		}
		return signature(c1) == signature(c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: subsystem time is monotone non-decreasing across steps
// (absent rollbacks) and never exceeds any live component's local
// time.
func TestTimeInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		s, _ := randomSystem(seed)
		ok := true
		last := vtime.Time(0)
		s.Observe(Observer{Step: func(now vtime.Time) {
			if now < last {
				ok = false
			}
			last = now
			for _, c := range s.Components() {
				if !c.Done() && c.LocalTime().Before(now) {
					ok = false
				}
			}
		}})
		if err := s.Run(vtime.Infinity); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: restoring a checkpoint and re-running reproduces exactly
// the same final signature as the uninterrupted run.
func TestRestoreReplayProperty(t *testing.T) {
	f := func(seed int64, cutSeedRaw uint8) bool {
		// Reference run.
		sRef, cRef := randomSystem(seed)
		if err := sRef.Run(vtime.Infinity); err != nil {
			return false
		}
		want := signature(cRef)

		// Interrupted run: checkpoint at a pseudo-random time, run to
		// completion, rewind, re-run.
		s, c := randomSystem(seed)
		cut := vtime.Time(1 + int(cutSeedRaw)%200)
		requested := false
		s.Observe(Observer{Step: func(now vtime.Time) {
			if now >= cut && !requested {
				requested = true
				s.RequestCheckpoint("")
			}
		}})
		if err := s.Run(vtime.Infinity); err != nil {
			return false
		}
		if got := signature(c); got != want {
			return false
		}
		cs := s.LatestCheckpoint()
		if cs == nil {
			// The cut fell after all activity; nothing to test.
			return true
		}
		if err := s.RestoreCheckpoint(cs); err != nil {
			return false
		}
		s.observers = nil
		if err := s.Run(vtime.Infinity); err != nil {
			return false
		}
		return signature(c) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: drives fan out to exactly the listeners: total
// deliveries equals the sum over nets of drives x (ports - 1 driver)
// for fully-consuming consumers.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		s, cons := randomSystem(seed)
		if err := s.Run(vtime.Infinity); err != nil {
			return false
		}
		got := 0
		for _, co := range cons {
			got += len(co.Got)
		}
		return int64(got) == s.Stats().Deliveries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: DelayUntil never moves time backwards and lands exactly
// on the target when the target is in the future.
func TestDelayUntilProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		if len(steps) == 0 {
			return true
		}
		if len(steps) > 50 {
			steps = steps[:50]
		}
		ok := true
		s := NewSubsystem("du")
		b := BehaviorFunc(func(p *Proc) error {
			for _, raw := range steps {
				target := vtime.Time(raw)
				before := p.Time()
				p.DelayUntil(target)
				after := p.Time()
				if after < before {
					ok = false
				}
				if target > before && after != target {
					ok = false
				}
				if target <= before && after != before {
					ok = false
				}
			}
			return nil
		})
		s.NewComponent("c", b)
		if err := s.Run(vtime.Infinity); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
