package core

import (
	"sync"
	"testing"

	"repro/internal/vtime"
)

// poolFingerprint runs the seeded system with its rounds dispatched
// into the given shared pool and returns the same fingerprint as
// runFingerprintOpt.
func poolFingerprint(t *testing.T, seed int64, pool *SharedPool, optimism vtime.Duration) (string, Stats) {
	t.Helper()
	var sub *Subsystem
	defer func() { pool.Forget(sub) }()
	return fingerprint(t, seed, "shared pool", func(s *Subsystem) {
		sub = s
		s.SetPool(pool)
		if optimism > 0 {
			s.SetOptimism(optimism)
		}
	})
}

// TestSharedPoolEquivalence: a subsystem whose rounds run on a shared
// pool must reproduce the sequential scheduler bit-for-bit, at every
// pool size — whether the pool is attached (SetPool) or owned by the
// run (SetWorkers alone), which must also dispatch the very same
// rounds and speculations.
func TestSharedPoolEquivalence(t *testing.T) {
	var rounds, spec int64
	for seed := int64(1); seed <= 20; seed++ {
		want, _ := runFingerprint(t, seed, 0)
		for _, n := range []int{1, 2, 4} {
			for _, w := range []vtime.Duration{0, 17} {
				pool := NewSharedPool(n)
				got, st := poolFingerprint(t, seed, pool, w)
				pool.Close()
				if got != want {
					t.Fatalf("seed %d: shared pool n=%d optimism=%d diverged from sequential\nseq: %s\npool: %s",
						seed, n, w, want, got)
				}
				owned, ost := runFingerprintOpt(t, seed, n, w)
				if owned != want {
					t.Fatalf("seed %d: owned pool n=%d optimism=%d diverged from sequential\nseq: %s\npool: %s",
						seed, n, w, want, owned)
				}
				if ost.ParRounds != st.ParRounds || ost.SpecMembers != st.SpecMembers || ost.SpecCommits != st.SpecCommits {
					t.Fatalf("seed %d n=%d optimism=%d: owned pool ran %d rounds, %d speculations, %d commits; attached ran %d, %d, %d",
						seed, n, w, ost.ParRounds, ost.SpecMembers, ost.SpecCommits,
						st.ParRounds, st.SpecMembers, st.SpecCommits)
				}
				rounds += st.ParRounds
				spec += st.SpecMembers
			}
		}
	}
	if rounds == 0 {
		t.Fatalf("no seed produced a parallel round on the shared pool")
	}
	if spec == 0 {
		t.Fatalf("no seed produced a speculative dispatch on the shared pool")
	}
}

// TestSharedPoolConcurrentSubsystems: many subsystems running
// concurrently on ONE shared pool must each reproduce their own
// sequential fingerprint — interleaving another tenant's jobs between
// a subsystem's round members must be invisible in its results.
func TestSharedPoolConcurrentSubsystems(t *testing.T) {
	const tenants = 12
	want := make([]string, tenants)
	for i := 0; i < tenants; i++ {
		want[i], _ = runFingerprint(t, int64(i+1), 0)
	}

	pool := NewSharedPool(4)
	defer pool.Close()
	got := make([]string, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = poolFingerprint(t, int64(i+1), pool, 0)
		}(i)
	}
	wg.Wait()
	for i := 0; i < tenants; i++ {
		if got[i] != want[i] {
			t.Fatalf("tenant %d diverged on the shared pool\nseq:  %s\npool: %s",
				i, want[i], got[i])
		}
	}
}

// TestSharedPoolForgetReuse: attach, run, forget, repeat — the ring
// bookkeeping must survive subsystems coming and going.
func TestSharedPoolForgetReuse(t *testing.T) {
	pool := NewSharedPool(2)
	defer pool.Close()
	want, _ := runFingerprint(t, 3, 0)
	for i := 0; i < 5; i++ {
		got, _ := poolFingerprint(t, 3, pool, 0)
		if got != want {
			t.Fatalf("iteration %d diverged", i)
		}
	}
}
