package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/vtime"
)

// relay receives on "in", models some compute latency, and forwards
// the incremented value on "out". Because it drives what it received,
// the drive digest witnesses every reception.
type relay struct {
	work vtime.Duration
}

func (r *relay) Run(p *Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		p.Advance(r.work)
		p.Send("out", m.Value.(int)+1)
	}
}

// A relay is a pure reactor: its Recv loop carries no progress state,
// so an empty image makes it checkpointable (and thus eligible for
// speculative dispatch). work is configuration, preserved
// because restore never touches them.
func (r *relay) SaveState() ([]byte, error) { return nil, nil }
func (r *relay) RestoreState([]byte) error  { return nil }

// poller exercises the deadline fast path: it polls its port a fixed
// number of times with RecvDeadline. Done counts completed polls and
// Last anchors the next deadline, so a restored poller resumes
// exactly where its image was taken: deadlines must chain from saved
// state, not from p.Time() — a restored component's local clock
// includes whatever idle catch-up it had absorbed while parked, so a
// deadline recomputed from it would drift (the RecvDeadline analogue
// of the Delay-vs-DelayUntil checkpoint rule).
type poller struct {
	period vtime.Duration
	rounds int
	Done   int
	Last   vtime.Time
	Got    []int
	Times  []vtime.Time
}

func (po *poller) Run(p *Proc) error {
	for po.Done < po.rounds {
		m, ok := p.RecvDeadline(po.Last.Add(po.period), "in")
		if ok {
			po.Got = append(po.Got, m.Value.(int))
			po.Times = append(po.Times, m.Time)
		}
		po.Last = p.Time()
		po.Done++
	}
	return nil
}

// pollerState is the poller's saved progress. period and rounds are
// configuration and stay out of the image: GobRestore zeroes its
// target, so gob-encoding the poller itself would wipe them (they are
// unexported and gob cannot carry them).
type pollerState struct {
	Done  int
	Last  vtime.Time
	Got   []int
	Times []vtime.Time
}

func (po *poller) SaveState() ([]byte, error) {
	return GobSave(pollerState{Done: po.Done, Last: po.Last, Got: po.Got, Times: po.Times})
}

func (po *poller) RestoreState(b []byte) error {
	var st pollerState
	if err := GobRestore(&st, b); err != nil {
		return err
	}
	po.Done, po.Last, po.Got, po.Times = st.Done, st.Last, st.Got, st.Times
	return nil
}

// randomParallelSystem builds a seeded random topology: producers and
// relays form a DAG over a handful of nets (zero delays included), so
// every run terminates; consumers and pollers record what reaches
// them. Everything is derived from the seed.
func randomParallelSystem(seed int64) (*Subsystem, []*consumer, []*poller) {
	rng := rand.New(rand.NewSource(seed))
	s := NewSubsystem("par")

	nNets := 2 + rng.Intn(3)
	nets := make([]*Net, nNets)
	for i := range nets {
		nets[i], _ = s.NewNet(fmt.Sprintf("n%d", i), vtime.Duration(rng.Intn(6)))
	}

	nProd := 1 + rng.Intn(4)
	for i := 0; i < nProd; i++ {
		pr := &producer{Count: 1 + rng.Intn(20), Period: vtime.Duration(1 + rng.Intn(30))}
		c, _ := s.NewComponent(fmt.Sprintf("prod%d", i), pr, "out")
		s.Connect(nets[rng.Intn(nNets)], c.Port("out"))
	}

	// Relays forward strictly "downstream" (lower net index to
	// higher), keeping the topology acyclic.
	nRelay := rng.Intn(3)
	for i := 0; i < nRelay; i++ {
		from := rng.Intn(nNets - 1)
		to := from + 1 + rng.Intn(nNets-from-1)
		rl := &relay{work: vtime.Duration(rng.Intn(8))}
		c, _ := s.NewComponent(fmt.Sprintf("relay%d", i), rl, "in", "out")
		s.Connect(nets[from], c.Port("in"))
		s.Connect(nets[to], c.Port("out"))
	}

	var cons []*consumer
	nCons := 1 + rng.Intn(4)
	for i := 0; i < nCons; i++ {
		co := &consumer{}
		cons = append(cons, co)
		c, _ := s.NewComponent(fmt.Sprintf("cons%d", i), co, "in")
		s.Connect(nets[rng.Intn(nNets)], c.Port("in"))
	}

	var polls []*poller
	nPoll := rng.Intn(3)
	for i := 0; i < nPoll; i++ {
		po := &poller{period: vtime.Duration(1 + rng.Intn(20)), rounds: 1 + rng.Intn(10)}
		polls = append(polls, po)
		c, _ := s.NewComponent(fmt.Sprintf("poll%d", i), po, "in")
		s.Connect(nets[rng.Intn(nNets)], c.Port("in"))
	}
	return s, cons, polls
}

// runFingerprint runs the seeded system with the given worker count
// and returns a string capturing everything the parallel scheduler
// must reproduce bit-for-bit: delivery values and times, final local
// times, final subsystem time, per-net drive counts, the ordered
// drive stream, and the delivery counter.
func runFingerprint(t *testing.T, seed int64, workers int) (string, Stats) {
	return runFingerprintOpt(t, seed, workers, 0)
}

// runFingerprintOpt is runFingerprint with an optimistic (Time Warp)
// window; 0 keeps the rounds purely conservative.
func runFingerprintOpt(t *testing.T, seed int64, workers int, optimism vtime.Duration) (string, Stats) {
	t.Helper()
	return fingerprint(t, seed, fmt.Sprintf("workers %d optimism %d", workers, optimism), func(s *Subsystem) {
		s.SetWorkers(workers)
		if optimism > 0 {
			s.SetOptimism(optimism)
		}
	})
}

// fingerprint builds the seeded system, lets configure pick its
// scheduler mode, runs it to exhaustion and digests the result.
func fingerprint(t *testing.T, seed int64, mode string, configure func(*Subsystem)) (string, Stats) {
	t.Helper()
	s, cons, polls := randomParallelSystem(seed)
	configure(s)

	driveDigest := fnv.New64a()
	driveCounts := make(map[string]int64)
	s.OnDrive = func(net, src string, tt vtime.Time, v any) {
		driveCounts[net]++
		fmt.Fprintf(driveDigest, "%s|%s|%d|%v\n", net, src, tt, v)
	}

	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatalf("seed %d %s: %v", seed, mode, err)
	}

	sig := signature(cons)
	for i, po := range polls {
		sig += fmt.Sprintf("|poll%d:", i)
		for j, v := range po.Got {
			sig += fmt.Sprintf("%d@%d,", v, po.Times[j])
		}
	}
	for _, c := range s.Components() {
		sig += fmt.Sprintf("|%s@%d", c.Name(), c.LocalTime())
	}
	sig += fmt.Sprintf("|now=%d", s.Now())
	for i := 0; ; i++ {
		name := fmt.Sprintf("n%d", i)
		if s.Net(name) == nil {
			break
		}
		sig += fmt.Sprintf("|%s=%d", name, driveCounts[name])
	}
	st := s.Stats()
	sig += fmt.Sprintf("|drv=%x|deliv=%d|drives=%d",
		driveDigest.Sum64(), st.Deliveries, st.Drives)
	return sig, st
}

// TestParallelEquivalenceProperty: across 50 random topologies, a
// three-way mode matrix — sequential, conservative rounds, and
// optimistic (Time Warp) rounds at varied windows — at 1, 2 and 4
// workers must produce exactly the sequential scheduler's delivery
// stream, virtual end times, per-net drive counts and drive
// digests.
func TestParallelEquivalenceProperty(t *testing.T) {
	var parRounds, specRounds, rollbacks int64
	for seed := int64(1); seed <= 50; seed++ {
		want, _ := runFingerprint(t, seed, 0)
		for _, workers := range []int{1, 2, 4} {
			got, st := runFingerprint(t, seed, workers)
			if got != want {
				t.Fatalf("seed %d: workers=%d diverged from sequential\nseq: %s\npar: %s",
					seed, workers, want, got)
			}
			parRounds += st.ParRounds
			for _, w := range []vtime.Duration{3, 17} {
				got, st := runFingerprintOpt(t, seed, workers, w)
				if got != want {
					t.Fatalf("seed %d: workers=%d optimism=%d diverged from sequential\nseq: %s\nopt: %s",
						seed, workers, w, want, got)
				}
				specRounds += st.SpecRounds
				rollbacks += st.Rollbacks
			}
		}
	}
	if parRounds == 0 {
		t.Fatal("no parallel rounds were ever dispatched; the parallel path went untested")
	}
	if specRounds == 0 {
		t.Fatal("no speculative rounds were ever dispatched; the optimistic path went untested")
	}
	t.Logf("matrix: %d conservative rounds, %d speculative rounds, %d rollbacks",
		parRounds, specRounds, rollbacks)
}

// TestParallelPipeIdentical pins the basic case: a producer/consumer
// pipe delivers identical values at identical times regardless of the
// worker count.
func TestParallelPipeIdentical(t *testing.T) {
	ref, _, coRef := buildPipe(t, 3, 50, 2)
	if err := ref.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		s, _, co := buildPipe(t, 3, 50, 2)
		s.SetWorkers(workers)
		if err := s.Run(vtime.Infinity); err != nil {
			t.Fatal(err)
		}
		if len(co.Got) != len(coRef.Got) {
			t.Fatalf("workers=%d delivered %d, want %d", workers, len(co.Got), len(coRef.Got))
		}
		for i := range co.Got {
			if co.Got[i] != coRef.Got[i] || co.Times[i] != coRef.Times[i] {
				t.Fatalf("workers=%d delivery %d = %d@%v, want %d@%v",
					workers, i, co.Got[i], co.Times[i], coRef.Got[i], coRef.Times[i])
			}
		}
		if got, want := s.Stats().Drives, ref.Stats().Drives; got != want {
			t.Fatalf("workers=%d drives %d, want %d", workers, got, want)
		}
	}
}

// TestParallelRoundsDispatch: independent producer/consumer pairs are
// exactly the shape the safe horizon admits; with workers set, rounds
// must actually be dispatched to the pool.
func TestParallelRoundsDispatch(t *testing.T) {
	build := func() (*Subsystem, []*consumer) {
		s := NewSubsystem("fan")
		var cons []*consumer
		for i := 0; i < 8; i++ {
			n, _ := s.NewNet(fmt.Sprintf("lane%d", i), 5)
			pr := &producer{Count: 20, Period: 7}
			pc, _ := s.NewComponent(fmt.Sprintf("p%d", i), pr, "out")
			co := &consumer{}
			cons = append(cons, co)
			cc, _ := s.NewComponent(fmt.Sprintf("c%d", i), co, "in")
			s.Connect(n, pc.Port("out"), cc.Port("in"))
		}
		return s, cons
	}
	ref, consRef := build()
	if err := ref.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	s, cons := build()
	s.SetWorkers(4)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ParRounds == 0 {
		t.Fatal("no parallel rounds dispatched on a fully independent topology")
	}
	if signature(cons) != signature(consRef) {
		t.Fatalf("parallel fan diverged:\nseq: %s\npar: %s", signature(consRef), signature(cons))
	}
}

// TestParallelAutoCheckpoint: automatic checkpoint cuts must land at
// identical virtual times in parallel mode (the round horizon is
// capped at the next cut), and a restore must replay identically.
func TestParallelAutoCheckpoint(t *testing.T) {
	run := func(workers int) (string, []vtime.Time) {
		s, _, co := buildPipe(t, 3, 40, 5)
		s.SetWorkers(workers)
		s.SetAutoCheckpoint(25)
		s.SetCheckpointRetention(100)
		if err := s.Run(vtime.Infinity); err != nil {
			t.Fatal(err)
		}
		var cuts []vtime.Time
		for _, cs := range s.Checkpoints() {
			cuts = append(cuts, cs.Time)
		}
		sig := ""
		for i := range co.Got {
			sig += fmt.Sprintf("%d@%d,", co.Got[i], co.Times[i])
		}
		return sig, cuts
	}
	wantSig, wantCuts := run(0)
	for _, workers := range []int{2, 4} {
		sig, cuts := run(workers)
		if sig != wantSig {
			t.Fatalf("workers=%d deliveries diverged", workers)
		}
		if len(cuts) != len(wantCuts) {
			t.Fatalf("workers=%d made %d checkpoints, want %d", workers, len(cuts), len(wantCuts))
		}
		for i := range cuts {
			if cuts[i] != wantCuts[i] {
				t.Fatalf("workers=%d cut %d at %v, want %v", workers, i, cuts[i], wantCuts[i])
			}
		}
	}
}

// TestParallelPoolRestart: the pool starts and stops per Run; a
// finite-horizon run followed by a continuation must work and match a
// single sequential run, and no pool worker may outlive either Run.
func TestParallelPoolRestart(t *testing.T) {
	ref, _, coRef := buildPipe(t, 2, 30, 4)
	if err := ref.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	s, _, co := buildPipe(t, 2, 30, 4)
	s.SetWorkers(3)
	for _, until := range []vtime.Time{60, vtime.Infinity} {
		if err := s.Run(until); err != nil {
			t.Fatal(err)
		}
		// Close joins the workers; one may still be unwinding its last
		// frame, so give the runtime a moment before calling it a leak.
		deadline := time.Now().Add(5 * time.Second)
		for liveWorkers() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("Run(%v) returned with %d pool workers still alive", until, liveWorkers())
			}
			runtime.Gosched()
		}
	}
	if s.Stats().ParRounds == 0 {
		t.Fatal("no parallel rounds dispatched; the owned pool went unused")
	}
	if fmt.Sprint(co.Got) != fmt.Sprint(coRef.Got) || fmt.Sprint(co.Times) != fmt.Sprint(coRef.Times) {
		t.Fatalf("split run diverged: got %v@%v want %v@%v", co.Got, co.Times, coRef.Got, coRef.Times)
	}
}

// liveWorkers counts the SharedPool worker goroutines in the process.
func liveWorkers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*SharedPool).worker")
}

// TestParallelStop: Stop must interrupt parallel rounds promptly (the
// external-request generation vacates the inline fast paths).
func TestParallelStop(t *testing.T) {
	s := NewSubsystem("stop")
	for i := 0; i < 4; i++ {
		n, _ := s.NewNet(fmt.Sprintf("lane%d", i), 1)
		c, _ := s.NewComponent(fmt.Sprintf("spin%d", i), BehaviorFunc(func(p *Proc) error {
			for {
				p.Send("out", 1)
				p.Delay(1)
			}
		}), "out")
		s.Connect(n, c.Port("out"))
	}
	s.SetWorkers(4)
	done := make(chan error, 1)
	go func() { done <- s.Run(vtime.Infinity) }()
	s.Stop()
	if err := <-done; err != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	s.Teardown()
}

// TestFastPathMatchesHookedRun: installing OnStep pins the scheduler
// to the classic step-at-a-time path; results must match the fast
// (fused) path exactly.
func TestFastPathMatchesHookedRun(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		fast, _ := runFingerprint(t, seed, 0)
		s, cons, polls := randomParallelSystem(seed)
		steps := 0
		s.OnStep = func(vtime.Time) { steps++ }
		driveDigest := fnv.New64a()
		driveCounts := make(map[string]int64)
		s.OnDrive = func(net, src string, tt vtime.Time, v any) {
			driveCounts[net]++
			fmt.Fprintf(driveDigest, "%s|%s|%d|%v\n", net, src, tt, v)
		}
		if err := s.Run(vtime.Infinity); err != nil {
			t.Fatal(err)
		}
		sig := signature(cons)
		for i, po := range polls {
			sig += fmt.Sprintf("|poll%d:", i)
			for j, v := range po.Got {
				sig += fmt.Sprintf("%d@%d,", v, po.Times[j])
			}
		}
		for _, c := range s.Components() {
			sig += fmt.Sprintf("|%s@%d", c.Name(), c.LocalTime())
		}
		sig += fmt.Sprintf("|now=%d", s.Now())
		for i := 0; ; i++ {
			name := fmt.Sprintf("n%d", i)
			if s.Net(name) == nil {
				break
			}
			sig += fmt.Sprintf("|%s=%d", name, driveCounts[name])
		}
		st := s.Stats()
		sig += fmt.Sprintf("|drv=%x|deliv=%d|drives=%d",
			driveDigest.Sum64(), st.Deliveries, st.Drives)
		if sig != fast {
			t.Fatalf("seed %d: hooked (slow) run diverged from fast run\nslow: %s\nfast: %s", seed, sig, fast)
		}
		if steps == 0 {
			t.Fatal("OnStep never called")
		}
	}
}

// stormTicker emits one value per virtual tick. It is deliberately
// NOT a StateSaver: it can never be dispatched speculatively, so the
// storm's speculative cohort is always exactly the poller — and every
// speculative round must therefore roll back.
type stormTicker struct {
	N    int
	Sent int
}

func (a *stormTicker) Run(p *Proc) error {
	for a.Sent < a.N {
		p.Send("out", a.Sent)
		a.Sent++
		p.Delay(1)
	}
	return nil
}

// stormPoller polls a silent "tick" port on a long period while the
// ticker's output piles up unread on its filtered-out "in" port. Its
// scheduling key therefore runs far ahead of the ticker's, so every
// optimistic round speculates it past the horizon — and every ticker
// send then lands in its executed past, forcing a rollback. Each poll
// drives its count on "out", so a single leaked (rolled-back, then
// replayed) poll would double a drive and break the drive digest.
type stormPoller struct {
	Period vtime.Duration
	Rounds int
	Done   int
	Last   vtime.Time
	Times  []vtime.Time
}

func (po *stormPoller) Run(p *Proc) error {
	for po.Done < po.Rounds {
		_, ok := p.RecvDeadline(po.Last.Add(po.Period), "tick")
		if !ok {
			po.Times = append(po.Times, p.Time())
		}
		p.Send("out", po.Done)
		po.Last = p.Time()
		po.Done++
	}
	return nil
}

func (po *stormPoller) SaveState() ([]byte, error) { return GobSave(po) }
func (po *stormPoller) RestoreState(b []byte) error {
	return GobRestore(po, b)
}

// buildStorm wires the straggler storm: ticker -> (delay-1 net) ->
// poller "in", with the poller's deadline loop filtered to a never-
// driven "tick" net so the piled-up input never lifts its key.
func buildStorm(t *testing.T) (*Subsystem, *stormPoller) {
	t.Helper()
	s := NewSubsystem("storm")
	x, _ := s.NewNet("x", 1)
	tick, _ := s.NewNet("tick", 100)
	a, _ := s.NewComponent("tick0", &stormTicker{N: 30}, "out")
	s.Connect(x, a.Port("out"))
	po := &stormPoller{Period: 10, Rounds: 10}
	m, _ := s.NewComponent("poll0", po, "in", "tick", "out")
	polls, _ := s.NewNet("polls", 1)
	s.Connect(x, m.Port("in"))
	s.Connect(tick, m.Port("tick"))
	s.Connect(polls, m.Port("out"))
	return s, po
}

// stormFingerprint runs the storm topology and digests everything the
// optimistic scheduler must keep bit-identical to sequential.
func stormFingerprint(t *testing.T, workers int, optimism vtime.Duration, throttle bool) (string, Stats) {
	t.Helper()
	s, po := buildStorm(t)
	s.SetWorkers(workers)
	if optimism > 0 {
		s.SetOptimism(optimism)
		s.optThrottle = throttle
	}
	driveDigest := s.DigestDrives()
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatalf("storm workers=%d optimism=%d: %v", workers, optimism, err)
	}
	st := s.Stats()
	sig := fmt.Sprintf("done=%d|times=%v|now=%d|drv=%x|deliv=%d|drives=%d",
		po.Done, po.Times, s.Now(), driveDigest.Sum64(), st.Deliveries, st.Drives)
	for _, c := range s.Components() {
		sig += fmt.Sprintf("|%s@%d", c.Name(), c.LocalTime())
	}
	return sig, st
}

// TestOptimisticStragglerStorm: with the throttle pinned open, the
// storm topology makes every speculative round mis-speculate — the
// merge must roll the poller back each time and still converge on the
// exact sequential result.
func TestOptimisticStragglerStorm(t *testing.T) {
	want, _ := stormFingerprint(t, 0, 0, false)
	got, st := stormFingerprint(t, 2, 64, false)
	if got != want {
		t.Fatalf("storm diverged from sequential\nseq: %s\nopt: %s", want, got)
	}
	if st.SpecRounds < 5 {
		t.Fatalf("storm dispatched only %d speculative rounds; topology no longer speculates", st.SpecRounds)
	}
	if st.Rollbacks < st.SpecRounds {
		t.Fatalf("storm rolled back %d times over %d speculative rounds; want a rollback every round",
			st.Rollbacks, st.SpecRounds)
	}
	if st.RolledBack == 0 {
		t.Fatal("rollbacks discarded zero buffered events")
	}
	t.Logf("storm: %d spec rounds, %d rollbacks, %d ops discarded, %d commits",
		st.SpecRounds, st.Rollbacks, st.RolledBack, st.SpecCommits)
}

// TestOptimisticThrottleAdapts: the same hostile topology with the
// adaptive throttle left on must still match sequential while paying
// for far fewer mis-speculations — the window collapses after the
// rollback storm begins and only retries after cooldowns.
func TestOptimisticThrottleAdapts(t *testing.T) {
	want, _ := stormFingerprint(t, 0, 0, false)
	got, st := stormFingerprint(t, 2, 64, true)
	if got != want {
		t.Fatalf("throttled storm diverged from sequential\nseq: %s\nopt: %s", want, got)
	}
	_, unthrottled := stormFingerprint(t, 2, 64, false)
	if st.Rollbacks >= unthrottled.Rollbacks {
		t.Fatalf("throttle did not help: %d rollbacks throttled vs %d unthrottled",
			st.Rollbacks, unthrottled.Rollbacks)
	}
}
