package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/vtime"
)

// SessionsConfig shapes the multi-tenant service benchmark: the
// steady-state concurrent-session legs, the create/run/stop churn
// leg, and the admission/eviction determinism probes.
type SessionsConfig struct {
	Sessions int   // steady-state tenants held live per leg
	Churn    int   // total sessions churned through the churn leg
	Clients  int   // concurrent churn clients
	Workers  []int // shared-pool sizes for the steady legs

	// Fan workload shape shared by every session; the seed varies
	// per session over Seeds distinct values.
	Fanout    int
	Rounds    int
	WorkIters int
	Seeds     int

	StepChunk vtime.Duration // interleaved fair-share step quantum
}

// DefaultSessionsConfig holds ~120 tenants at steady state — the
// acceptance bar is ≥ 100 concurrent sessions on one host — and
// churns 240 through 8 concurrent clients.
func DefaultSessionsConfig() SessionsConfig {
	return SessionsConfig{
		Sessions:  120,
		Churn:     240,
		Clients:   8,
		Workers:   []int{0, 2, 4},
		Fanout:    4,
		Rounds:    8,
		WorkIters: 256,
		Seeds:     24,
		StepChunk: 20 * vtime.Millisecond,
	}
}

// SessionsRow is one benchmark leg.
type SessionsRow struct {
	Leg            string        `json:"leg"`                        // "steady", "churn", "admission", "evict"
	Workers        int           `json:"workers"`                    // shared-pool size (0 = sequential)
	Sessions       int           `json:"sessions"`                   // sessions the leg ran
	PeakLive       int           `json:"peak_live"`                  // max concurrent sessions observed
	Wall           time.Duration `json:"wall_ns"`                    // leg wall-clock
	SessionsPerSec float64       `json:"sessions_per_sec,omitempty"` // churn leg: completed sessions per second
	Steps          int64         `json:"steps,omitempty"`            // scheduler steps summed over the leg
	DigestsOK      bool          `json:"digests_identical"`          // every digest matched its isolated reference
	Rejected       int64         `json:"rejected,omitempty"`         // admission leg: budget rejections
	Evicted        int64         `json:"evicted,omitempty"`          // evict leg: budget evictions
	EvictChunk     int           `json:"evict_chunk,omitempty"`      // evict leg: step-call index that crossed the budget
	EvictSteps     int64         `json:"evict_steps,omitempty"`      // evict leg: step count at eviction
}

func (c SessionsConfig) spec(i int) service.Spec {
	return service.Spec{
		Seed:      int64(i % c.Seeds),
		Fanout:    c.Fanout,
		Rounds:    c.Rounds,
		WorkIters: c.WorkIters,
	}
}

// references runs each distinct seed alone — one session, one
// sequential catalog — and records the digest every multi-tenant run
// must reproduce bit-for-bit.
func (c SessionsConfig) references() ([]uint64, error) {
	refs := make([]uint64, c.Seeds)
	for s := 0; s < c.Seeds; s++ {
		cat := service.NewCatalog(service.Config{})
		info, err := cat.Create(c.spec(s))
		if err == nil {
			info, err = cat.Step(info.ID, 0, 0)
		}
		cat.Close()
		if err != nil {
			return nil, fmt.Errorf("sessions: isolated reference seed %d: %w", s, err)
		}
		if info.State != service.StateDone {
			return nil, fmt.Errorf("sessions: isolated reference seed %d ended %q", s, info.State)
		}
		refs[s] = info.DigestU64
	}
	return refs, nil
}

// Sessions measures the multi-tenant session service on one host:
// steady-state legs that hold Sessions tenants live and step them
// interleaved on a shared pool at each worker count, a churn leg
// that creates/runs/stops sessions from concurrent clients, and
// deterministic admission/eviction probes. Every session's drive
// digest is checked against its isolated single-session reference;
// any mismatch is an error (and DigestsOK false).
func Sessions(cfg SessionsConfig) ([]SessionsRow, error) {
	refs, err := cfg.references()
	if err != nil {
		return nil, err
	}
	var rows []SessionsRow

	for _, workers := range cfg.Workers {
		row, err := steady(cfg, service.Config{Workers: workers}, refs)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}

	churn, err := churnLeg(cfg, refs)
	if err != nil {
		return rows, err
	}
	rows = append(rows, churn)

	adm, err := admissionLeg(cfg)
	if err != nil {
		return rows, err
	}
	rows = append(rows, adm)

	ev, err := evictLeg(cfg)
	if err != nil {
		return rows, err
	}
	rows = append(rows, ev)
	return rows, nil
}

// steady holds cfg.Sessions tenants live at once on one catalog
// configured as svc and advances all of them in interleaved StepChunk
// quanta — the fair-share serving pattern — until every tenant
// finishes, checking each one's drive digest against its isolated
// reference.
func steady(cfg SessionsConfig, svc service.Config, refs []uint64) (SessionsRow, error) {
	row := SessionsRow{Leg: "steady", Workers: svc.Workers, Sessions: cfg.Sessions}
	cat := service.NewCatalog(svc)
	defer cat.Close()

	start := time.Now()
	ids := make([]string, cfg.Sessions)
	for i := range ids {
		info, err := cat.Create(cfg.spec(i))
		if err != nil {
			return row, fmt.Errorf("sessions: steady create %d: %w", i, err)
		}
		ids[i] = info.ID
	}
	row.PeakLive = cat.Stats().Live

	done := make(map[string]service.Info, len(ids))
	maxRounds := int(vtime.Duration(cfg.Rounds+3)*10*vtime.Millisecond/cfg.StepChunk) + 4
	for round := 0; len(done) < len(ids); round++ {
		if round > maxRounds {
			return row, fmt.Errorf("sessions: steady leg stuck after %d rounds (%d/%d done)", round, len(done), len(ids))
		}
		for _, id := range ids {
			if _, ok := done[id]; ok {
				continue
			}
			info, err := cat.Step(id, 0, cfg.StepChunk)
			if err != nil {
				return row, fmt.Errorf("sessions: steady step %s: %w", id, err)
			}
			if info.State == service.StateDone {
				done[id] = info
			}
		}
	}
	row.Wall = time.Since(start)
	for i, id := range ids {
		info := done[id]
		row.Steps += info.Steps
		if info.DigestU64 != refs[i%cfg.Seeds] {
			return row, fmt.Errorf("sessions: steady workers=%d tenant %s digest %016x, want %016x",
				svc.Workers, id, info.DigestU64, refs[i%cfg.Seeds])
		}
	}
	row.DigestsOK = true
	return row, nil
}

// churnLeg hammers the catalog lifecycle from concurrent clients:
// create, run to completion, digest-check, stop. Throughput is
// completed sessions per wall second through one shared pool.
func churnLeg(cfg SessionsConfig, refs []uint64) (SessionsRow, error) {
	workers := cfg.Workers[len(cfg.Workers)-1]
	row := SessionsRow{Leg: "churn", Workers: workers, Sessions: cfg.Churn, DigestsOK: true}
	cat := service.NewCatalog(service.Config{Workers: workers})
	defer cat.Close()

	perClient := cfg.Churn / cfg.Clients
	row.Sessions = perClient * cfg.Clients
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		peak int
		errs []error
	)
	start := time.Now()
	for g := 0; g < cfg.Clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := g*perClient + k
				info, err := cat.Create(cfg.spec(i))
				if err == nil {
					live := cat.Stats().Live
					mu.Lock()
					if live > peak {
						peak = live
					}
					mu.Unlock()
					info, err = cat.Step(info.ID, 0, 0)
				}
				if err == nil && info.DigestU64 != refs[i%cfg.Seeds] {
					err = fmt.Errorf("digest %016x, want %016x", info.DigestU64, refs[i%cfg.Seeds])
				}
				if err == nil {
					_, err = cat.Stop(info.ID, 0)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("sessions: churn client %d session %d: %w", g, i, err))
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	row.Wall = time.Since(start)
	if len(errs) > 0 {
		row.DigestsOK = false
		return row, errs[0]
	}
	st := cat.Stats()
	row.PeakLive = peak
	if st.Created != int64(row.Sessions) || st.Stopped != int64(row.Sessions) {
		return row, fmt.Errorf("sessions: churn accounting: %+v, want %d created+stopped", st, row.Sessions)
	}
	if row.Wall > 0 {
		row.SessionsPerSec = float64(row.Sessions) / row.Wall.Seconds()
	}
	return row, nil
}

// admissionLeg verifies deterministic admission control: a catalog
// capped at half the offered sessions must reject exactly the
// overflow, every time.
func admissionLeg(cfg SessionsConfig) (SessionsRow, error) {
	limit := cfg.Sessions / 2
	if limit < 1 {
		limit = 1
	}
	offered := limit * 2
	row := SessionsRow{Leg: "admission", Sessions: offered, DigestsOK: true}
	cat := service.NewCatalog(service.Config{Limits: service.Limits{MaxSessions: limit}})
	defer cat.Close()
	start := time.Now()
	for i := 0; i < offered; i++ {
		_, err := cat.Create(cfg.spec(i))
		switch {
		case i < limit && err != nil:
			return row, fmt.Errorf("sessions: admission create %d: %w", i, err)
		case i >= limit && !errors.Is(err, service.ErrOverBudget):
			return row, fmt.Errorf("sessions: admission create %d: %v, want ErrOverBudget", i, err)
		}
	}
	row.Wall = time.Since(start)
	st := cat.Stats()
	row.PeakLive = st.Live
	row.Rejected = st.Rejected
	if st.Rejected != int64(offered-limit) {
		return row, fmt.Errorf("sessions: admission rejected %d, want %d", st.Rejected, offered-limit)
	}
	return row, nil
}

// evictLeg verifies deterministic step-budget eviction: the same
// over-budget tenant must be evicted at the same step-call boundary
// with the same step count on every run.
func evictLeg(cfg SessionsConfig) (SessionsRow, error) {
	row := SessionsRow{Leg: "evict", Sessions: 1, DigestsOK: true}
	run := func() (int, int64, error) {
		cat := service.NewCatalog(service.Config{Limits: service.Limits{MaxSteps: 40}})
		defer cat.Close()
		info, err := cat.Create(cfg.spec(0))
		if err != nil {
			return 0, 0, err
		}
		for chunk := 1; ; chunk++ {
			info, err = cat.Step(info.ID, 0, cfg.StepChunk)
			if err != nil {
				var be *service.BudgetError
				if !errors.As(err, &be) || !be.Evicted {
					return 0, 0, err
				}
				return chunk, info.Steps, nil
			}
			if chunk > 10_000 {
				return 0, 0, fmt.Errorf("budget never crossed")
			}
		}
	}
	start := time.Now()
	c1, s1, err := run()
	if err != nil {
		return row, fmt.Errorf("sessions: evict run 1: %w", err)
	}
	c2, s2, err := run()
	if err != nil {
		return row, fmt.Errorf("sessions: evict run 2: %w", err)
	}
	row.Wall = time.Since(start)
	if c1 != c2 || s1 != s2 {
		row.DigestsOK = false
		return row, fmt.Errorf("sessions: eviction boundary diverged: chunk %d/%d steps %d/%d", c1, c2, s1, s2)
	}
	row.Evicted = 1
	row.EvictChunk = c1
	row.EvictSteps = s1
	return row, nil
}
