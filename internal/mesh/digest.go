// Per-component drive digests: the equivalence oracle for live
// migration. Every drive a component originates is folded (net name,
// virtual time, value) into an FNV-64a stream keyed by the component,
// on whichever member currently hosts it. Because a migrated
// component's pre-barrier sends all happened at the source and its
// post-barrier sends all happen at the destination, the stream splits
// cleanly at the barrier — transferring the running hash with the
// component keeps it bit-identical to the stationary run.
package mesh

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/core"
	"repro/internal/vtime"
)

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// digest accumulates per-component drive hashes for one member.
type digest struct {
	mu sync.Mutex
	m  map[string]uint64
}

// newDigest creates an empty digest table.
func newDigest() *digest { return &digest{m: make(map[string]uint64)} }

// Install chains onto the subsystem's OnDrive hook (preserving any
// hook already installed, e.g. the timeline's) and hashes every drive
// whose source component is locally hosted. Origin filtering is what
// makes the digest placement-independent: the member that hosts the
// driver hashes the drive exactly once, and remote fragments —
// where the same drive arrives via a channel with src preserved —
// skip it because the source is not local there.
func (d *digest) Install(sub *core.Subsystem) {
	prev := sub.OnDrive
	sub.OnDrive = func(net, src string, t vtime.Time, v any) {
		if prev != nil {
			prev(net, src, t, v)
		}
		if sub.Component(src) == nil {
			return
		}
		d.mu.Lock()
		h := d.m[src]
		if h == 0 {
			h = fnvOffset
		}
		h = fnvAdd(h, net)
		h = fnvAdd(h, "\x00")
		h = fnvAdd(h, fmt.Sprintf("%d", int64(t)))
		h = fnvAdd(h, "\x00")
		h = fnvAdd(h, fmt.Sprintf("%v", v))
		d.m[src] = h
		d.mu.Unlock()
	}
}

// Value returns the running hash for a component (0 if it never
// drove anything here).
func (d *digest) Value(comp string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.m[comp]
}

// Seed installs a transferred hash state for a component arriving by
// migration.
func (d *digest) Seed(comp string, h uint64) {
	if h == 0 {
		return
	}
	d.mu.Lock()
	d.m[comp] = h
	d.mu.Unlock()
}

// take removes a departing component's hash state.
func (d *digest) take(comp string) {
	d.mu.Lock()
	delete(d.m, comp)
	d.mu.Unlock()
}

// Snapshot copies the table: component -> hash.
func (d *digest) Snapshot() map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return maps.Clone(d.m)
}
