// In-process mesh harness: spin up N members on loopback, used by
// tests, piabench and the README demo.
package mesh

import (
	"fmt"
	"maps"
	"sort"
	"sync"

	pia "repro"
	"repro/internal/vtime"
)

// localMesh is a set of in-process members, sorted by name (so
// Members[0] is the leader).
type localMesh struct {
	Members []*member
}

// StartLocalMesh creates and joins one member per name, all on
// loopback ephemeral ports, each running the description. tune, when
// non-nil, may adjust each member's Config (e.g. install a prebuilt
// faulted node) before New. On error every already-created member is
// closed.
func StartLocalMesh(describe func(*pia.SystemBuilder) error, names []string, tune func(i int, cfg *Config)) (*localMesh, error) {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	lm := &localMesh{}
	peers := make(map[string]string, len(sorted))
	for i, name := range sorted {
		cfg := Config{Name: name, Describe: describe}
		if tune != nil {
			tune(i, &cfg)
		}
		m, err := New(cfg)
		if err != nil {
			lm.Close()
			return nil, err
		}
		lm.Members = append(lm.Members, m)
		peers[name] = m.CtlAddr()
	}
	// Every Start blocks until the full control mesh is connected,
	// so the members must join concurrently.
	var wg sync.WaitGroup
	errs := make([]error, len(lm.Members))
	for i, m := range lm.Members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			errs[i] = m.Start(peers)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			lm.Close()
			return nil, fmt.Errorf("mesh: start %s: %w", sorted[i], err)
		}
	}
	return lm, nil
}

// Leader returns the leading member.
func (lm *localMesh) Leader() *member { return lm.Members[0] }

// Run drives the whole mesh to the horizon in steps: the leader
// leads on this goroutine while followers wait, and the first error
// from any member is returned.
func (lm *localMesh) Run(until vtime.Time, step vtime.Duration) error {
	var wg sync.WaitGroup
	errs := make([]error, len(lm.Members))
	for i, m := range lm.Members[1:] {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			errs[i+1] = m.Wait()
		}(i, m)
	}
	errs[0] = lm.Leader().Lead(until, step)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Digests merges every member's per-component drive digests. At a
// finished run each component has exactly one home, so the union is
// collision-free.
func (lm *localMesh) Digests() map[string]uint64 {
	out := make(map[string]uint64)
	for _, m := range lm.Members {
		maps.Copy(out, m.Digests())
	}
	return out
}

// member returns the named member, or nil.
func (lm *localMesh) member(name string) *member {
	for _, m := range lm.Members {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// Close tears down all members.
func (lm *localMesh) Close() {
	for _, m := range lm.Members {
		if m != nil {
			m.Close()
		}
	}
}
