package service

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

const stepChunk = 20 * vtime.Millisecond

// isolatedDigest runs the spec alone, sequentially, in its own
// catalog — the reference every multi-tenant run must reproduce.
func isolatedDigest(t *testing.T, spec Spec) uint64 {
	t.Helper()
	c := NewCatalog(Config{})
	defer c.Close()
	info, err := c.Create(spec)
	if err != nil {
		t.Fatalf("isolated create: %v", err)
	}
	info, err = c.Step(info.ID, 0, 0)
	if err != nil {
		t.Fatalf("isolated step: %v", err)
	}
	if info.State != StateDone {
		t.Fatalf("isolated session state %q, want done", info.State)
	}
	return info.DigestU64
}

// TestFanDigestPinned: the fan workload's default spec at seed 1 runs
// to this virtual time, step and drive count and session digest — what
// it gave before it was described through the system builder.
func TestFanDigestPinned(t *testing.T) {
	c := NewCatalog(Config{})
	defer c.Close()
	info, err := c.Create(Spec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info, err = c.Step(info.ID, 0, 0); err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone || info.VirtNowNS != 80_000_000 || info.Steps != 45 || info.Drives != 40 || info.Digest != "5e345fe6ac16562d" {
		t.Fatalf("fan at seed 1: %+v", info)
	}
}

// stepAll drives every given session to done with interleaved fixed
// chunks — the fair-share pattern — and returns the final infos.
func stepAll(t *testing.T, c *Catalog, ids []string) map[string]Info {
	t.Helper()
	final := make(map[string]Info, len(ids))
	for round := 0; len(final) < len(ids); round++ {
		if round > 1000 {
			t.Fatalf("sessions did not finish after %d rounds", round)
		}
		for _, id := range ids {
			if _, done := final[id]; done {
				continue
			}
			info, err := c.Step(id, 0, stepChunk)
			if err != nil {
				t.Fatalf("step %s: %v", id, err)
			}
			if info.State == StateDone {
				final[id] = info
			}
		}
	}
	return final
}

func TestSessionLifecycle(t *testing.T) {
	c := NewCatalog(Config{})
	defer c.Close()

	info, err := c.Create(Spec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != stateReady || info.Rev != 1 {
		t.Fatalf("fresh session: state %q rev %d, want ready/1", info.State, info.Rev)
	}
	if info.Workload != workloadFan {
		t.Fatalf("default workload %q, want fan", info.Workload)
	}

	// Each step bumps the revision; the CAS precondition holds.
	mid, err := c.Step(info.ID, info.Rev, stepChunk)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Rev != info.Rev+1 {
		t.Fatalf("rev after step %d, want %d", mid.Rev, info.Rev+1)
	}

	done, err := c.Step(info.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Steps == 0 || done.Drives == 0 || done.DigestU64 == 0 {
		t.Fatalf("finished session: %+v", done)
	}

	// Done sessions step idempotently.
	again, err := c.Step(info.ID, 0, 0)
	if err != nil || again.DigestU64 != done.DigestU64 {
		t.Fatalf("idempotent step: %v %+v", err, again)
	}

	if _, err := c.Stop(info.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(info.ID); !errors.Is(err, errNotFound) {
		t.Fatalf("get after stop: %v, want ErrNotFound", err)
	}
	st := c.Stats()
	if st.Live != 0 || st.Created != 1 || st.Stopped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTypedErrors(t *testing.T) {
	c := NewCatalog(Config{})
	defer c.Close()

	var nf *notFoundError
	if _, err := c.Step("ghost", 0, stepChunk); !errors.As(err, &nf) || nf.ID != "ghost" {
		t.Fatalf("step ghost: %v", err)
	}
	if _, err := c.Stop("ghost", 0); !errors.Is(err, errNotFound) {
		t.Fatalf("stop ghost: %v", err)
	}

	if _, err := c.Create(Spec{Workload: "nonesuch"}); !errors.Is(err, errBadSpec) {
		t.Fatalf("bad workload: %v", err)
	}
	// A modemsite session named after the designer's subsystem would
	// place the whole WubbleU on itself.
	if _, err := c.Create(Spec{ID: designerSubsystem, Workload: workloadModemSite}); !errors.Is(err, errBadSpec) {
		t.Fatalf("modemsite named %q: %v", designerSubsystem, err)
	}

	info, err := c.Create(Spec{ID: "dup", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var conf *conflictError
	if _, err := c.Create(Spec{ID: "dup"}); !errors.As(err, &conf) {
		t.Fatalf("duplicate create: %v", err)
	}

	// A stale revision loses the CAS.
	if _, err := c.Step("dup", info.Rev+5, stepChunk); !errors.As(err, &conf) || !errors.Is(err, errConflict) {
		t.Fatalf("stale step: %v", err)
	}
	if _, err := c.Stop("dup", info.Rev+5); !errors.Is(err, errConflict) {
		t.Fatalf("stale stop: %v", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	c := NewCatalog(Config{Limits: Limits{MaxSessions: 3}})
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Create(Spec{}); err != nil {
			t.Fatal(err)
		}
	}
	var be *BudgetError
	if _, err := c.Create(Spec{}); !errors.As(err, &be) || be.Limit != "sessions" || be.Evicted {
		t.Fatalf("over MaxSessions: %v", err)
	}
	if got := c.Stats().Rejected; got != 1 {
		t.Fatalf("rejected %d, want 1", got)
	}

	// Per-session and aggregate memory budgets. A fan session's
	// footprint is (fanout+2)*32KiB.
	cm := NewCatalog(Config{Limits: Limits{MaxSessionMemBytes: 256 * 1024, MaxMemBytes: 512 * 1024}})
	defer cm.Close()
	if _, err := cm.Create(Spec{Fanout: 64}); !errors.As(err, &be) || be.Limit != "session-memory" {
		t.Fatalf("oversized session: %v", err)
	}
	if _, err := cm.Create(Spec{Fanout: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Create(Spec{Fanout: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Create(Spec{Fanout: 4}); !errors.As(err, &be) || be.Limit != "memory" {
		t.Fatalf("over aggregate memory: %v", err)
	}
	// Stopping a tenant releases its footprint.
	infos, _ := cm.List()
	if _, err := cm.Stop(infos[0].ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Create(Spec{Fanout: 4}); err != nil {
		t.Fatalf("create after release: %v", err)
	}
}

// TestStepBudgetEvictionDeterministic: the same workload stepped the
// same way must cross its step budget at the same boundary — same
// chunk index, same step count — on every run, and the evicted
// session must be torn down but observable.
func TestStepBudgetEvictionDeterministic(t *testing.T) {
	run := func() (chunks int, steps int64) {
		c := NewCatalog(Config{Limits: Limits{MaxSteps: 40}})
		defer c.Close()
		info, err := c.Create(Spec{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; ; i++ {
			var serr error
			info, serr = c.Step(info.ID, 0, 10*vtime.Millisecond)
			if serr != nil {
				var be *BudgetError
				if !errors.As(serr, &be) || !be.Evicted || be.Limit != "steps" {
					t.Fatalf("unexpected step error: %v", serr)
				}
				if got := c.Stats().Evicted; got != 1 {
					t.Fatalf("evicted count %d", got)
				}
				// The record survives for inspection, then Stop reaps it.
				got, gerr := c.Get(info.ID)
				if gerr != nil || got.State != StateEvicted {
					t.Fatalf("evicted record: %+v %v", got, gerr)
				}
				if _, serr := c.Step(info.ID, 0, stepChunk); !errors.Is(serr, ErrOverBudget) {
					t.Fatalf("step after eviction: %v", serr)
				}
				if _, serr := c.Stop(info.ID, 0); serr != nil {
					t.Fatalf("stop evicted: %v", serr)
				}
				return i, info.Steps
			}
			if i > 1000 {
				t.Fatal("never evicted")
			}
		}
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("eviction boundary diverged: run1 chunk %d steps %d, run2 chunk %d steps %d", c1, s1, c2, s2)
	}
}

// TestFairShareDeterminism: many tenants stepped interleaved on one
// shared pool must each produce the digest of their isolated,
// sequential run — at every pool size.
func TestFairShareDeterminism(t *testing.T) {
	const tenants = 12
	specs := make([]Spec, tenants)
	refs := make([]uint64, tenants)
	for i := range specs {
		specs[i] = Spec{ID: fmt.Sprintf("t-%d", i), Seed: int64(100 + i), Fanout: 3 + i%4, Rounds: 6 + i%5}
		refs[i] = isolatedDigest(t, specs[i])
	}
	for _, workers := range []int{0, 2, 4} {
		c := NewCatalog(Config{Workers: workers})
		ids := make([]string, tenants)
		for i, sp := range specs {
			info, err := c.Create(sp)
			if err != nil {
				t.Fatalf("workers=%d create %d: %v", workers, i, err)
			}
			ids[i] = info.ID
		}
		final := stepAll(t, c, ids)
		for i, id := range ids {
			if got := final[id].DigestU64; got != refs[i] {
				t.Fatalf("workers=%d tenant %s digest %016x, want %016x", workers, id, got, refs[i])
			}
		}
		c.Close()
	}
}

// TestServiceChurn: concurrent clients create, run, verify and stop
// sessions through one catalog on one shared pool. Run under -race
// by `make service`.
func TestServiceChurn(t *testing.T) {
	const (
		clients    = 6
		perClient  = 8
		distinctWL = 4
	)
	refs := make([]uint64, distinctWL)
	for i := range refs {
		refs[i] = isolatedDigest(t, Spec{Seed: int64(i), Fanout: 2 + i, Rounds: 5})
	}
	reg := metrics.NewRegistry()
	c := NewCatalog(Config{Workers: 4, Metrics: reg})
	defer c.Close()

	// Scrape continuously while sessions churn: Catalog.collect reads
	// each session's private registry, which build() publishes after
	// the session is visible in the catalog.
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	defer scrapeWG.Wait()
	defer close(stopScrape)

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				w := (g + k) % distinctWL
				info, err := c.Create(Spec{Seed: int64(w), Fanout: 2 + w, Rounds: 5})
				if err != nil {
					errs <- fmt.Errorf("client %d create: %w", g, err)
					return
				}
				info, err = c.Step(info.ID, 0, 0)
				if err != nil {
					errs <- fmt.Errorf("client %d step: %w", g, err)
					return
				}
				if info.DigestU64 != refs[w] {
					errs <- fmt.Errorf("client %d session %s digest %016x, want %016x", g, info.ID, info.DigestU64, refs[w])
					return
				}
				if _, err := c.Stop(info.ID, 0); err != nil {
					errs <- fmt.Errorf("client %d stop: %w", g, err)
					return
				}
				// Exercise the read paths concurrently with churn.
				c.List()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Live != 0 || st.Created != clients*perClient || st.Stopped != clients*perClient {
		t.Fatalf("stats after churn: %+v", st)
	}
}

// TestMetricsAggregation: the shared registry scrape must carry
// catalog-level series and every tenant's private series re-labelled
// with session="<id>".
func TestMetricsAggregation(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCatalog(Config{Metrics: reg})
	defer c.Close()
	if _, err := c.Create(Spec{ID: "alpha", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(Spec{ID: "beta", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("alpha", 0, 0); err != nil {
		t.Fatal(err)
	}

	byName := map[string]int64{}
	for _, s := range reg.Snapshot() {
		byName[s.Name] = s.Value
	}
	if got := byName["pia_service_sessions_live"]; got != 2 {
		t.Fatalf("sessions_live %d, want 2", got)
	}
	if got := byName[`pia_sched_steps{sub="alpha",session="alpha"}`]; got == 0 {
		keys := make([]string, 0, len(byName))
		for k := range byName {
			if strings.Contains(k, "session=") {
				keys = append(keys, k)
			}
		}
		t.Fatalf("no stepped-session series for alpha; session-labelled series: %v", keys)
	}
	if _, ok := byName[`pia_sched_steps{sub="beta",session="beta"}`]; !ok {
		t.Fatalf("beta series missing from aggregate scrape")
	}
}

// TestConcurrentStopRunning: racing DELETEs on a free-running session
// (a client retry, or Catalog.Close racing an HTTP DELETE) must all
// return — exactly one wins, the rest bounce with NotFound. Regression
// test for the one-shot runDone send that left every loser blocked on
// the channel forever.
func TestConcurrentStopRunning(t *testing.T) {
	autoRun := true
	c := NewCatalog(Config{})
	defer c.Close()
	info, err := c.Create(Spec{AutoRun: &autoRun, Rounds: 100_000, WorkIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	const stoppers = 8
	errs := make(chan error, stoppers)
	var wg sync.WaitGroup
	for i := 0; i < stoppers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Stop(info.ID, 0)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var ok, notFound int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, errNotFound):
			notFound++
		default:
			t.Fatalf("concurrent stop: %v", err)
		}
	}
	if ok != 1 || notFound != stoppers-1 {
		t.Fatalf("concurrent stops: %d succeeded, %d not-found; want 1 and %d", ok, notFound, stoppers-1)
	}
}

// TestStopDuringStep: while a Step runs the scheduler, the session
// lock is released — Get stays responsive, a second Step conflicts
// instead of queueing, and Stop halts the run and reaps the session.
func TestStopDuringStep(t *testing.T) {
	c := NewCatalog(Config{})
	defer c.Close()
	info, err := c.Create(Spec{Rounds: 100_000, WorkIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	stepErr := make(chan error, 1)
	go func() {
		_, err := c.Step(info.ID, 0, 0)
		stepErr <- err
	}()
	// Get must not block behind the in-flight step; poll it until the
	// scheduler has demonstrably started.
	for {
		got, err := c.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Steps > 0 {
			break
		}
		runtime.Gosched()
	}
	if _, err := c.Step(info.ID, 0, stepChunk); !errors.Is(err, errConflict) {
		t.Fatalf("concurrent step: %v, want ErrConflict", err)
	}
	if _, err := c.Stop(info.ID, 0); err != nil {
		t.Fatalf("stop during step: %v", err)
	}
	if err := <-stepErr; err != nil && !errors.Is(err, core.ErrStopped) {
		t.Fatalf("interrupted step: %v", err)
	}
	if _, err := c.Get(info.ID); !errors.Is(err, errNotFound) {
		t.Fatalf("get after stop: %v", err)
	}
}

// TestCreateRollbackBouncesLateLookups: when build fails after the
// session is already published in the catalog, a Step that grabbed the
// session pointer during the window must bounce with NotFound — not
// run the half-built subsystem — and the catalog must roll back its
// counters and release the id.
func TestCreateRollbackBouncesLateLookups(t *testing.T) {
	c := NewCatalog(Config{})
	defer c.Close()
	release := make(chan struct{})
	c.buildFailpoint = func() error {
		<-release
		return &specError{Reason: "injected build failure"}
	}
	createErr := make(chan error, 1)
	go func() {
		_, err := c.Create(Spec{ID: "ghost"})
		createErr <- err
	}()
	// The session is visible in the catalog while build is in flight.
	for {
		if _, err := c.lookup("ghost"); err == nil {
			break
		}
		runtime.Gosched()
	}
	stepErr := make(chan error, 1)
	go func() {
		_, err := c.Step("ghost", 0, stepChunk)
		stepErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the Step park on the session lock
	close(release)
	if err := <-createErr; !errors.Is(err, errBadSpec) {
		t.Fatalf("failed create: %v", err)
	}
	if err := <-stepErr; !errors.Is(err, errNotFound) {
		t.Fatalf("step on rolled-back session: %v, want ErrNotFound", err)
	}
	if st := c.Stats(); st.Live != 0 || st.Created != 0 || st.Footprint != 0 {
		t.Fatalf("stats after rollback: %+v", st)
	}
	// The id is free again.
	c.buildFailpoint = nil
	if _, err := c.Create(Spec{ID: "ghost"}); err != nil {
		t.Fatalf("recreate after rollback: %v", err)
	}
}

// TestCatalogClose: Close stops everything and rejects new creates.
func TestCatalogClose(t *testing.T) {
	c := NewCatalog(Config{Workers: 2})
	for i := 0; i < 3; i++ {
		if _, err := c.Create(Spec{Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if st := c.Stats(); st.Live != 0 {
		t.Fatalf("live after close: %+v", st)
	}
	if _, err := c.Create(Spec{}); !errors.Is(err, errClosed) {
		t.Fatalf("create after close: %v", err)
	}
}
