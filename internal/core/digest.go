package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"

	"repro/internal/vtime"
)

// DriveDigest is the witness runs are compared by: a table of running
// FNV-64a hashes, one per drive source, a component of the subsystem.
// A drive folds its net name, a zero byte, its decimal virtual time, a
// zero byte and its value's %v form into its source's entry. An entry
// depends only on what its source drove and when, so it is the same
// wherever the source runs, and a mesh carries a migrating component's
// entry with it (Value, Seed). Every method is safe from any goroutine
// while the subsystem runs.
type DriveDigest struct {
	sub *Subsystem
	mu  sync.Mutex
	m   map[string]uint64
	buf []byte // the bytes being hashed, reused drive to drive
}

// DigestDrives subscribes a new digest to every drive s's components
// make and returns it. A drive that reaches s over a channel from a
// component elsewhere is that component's, and is hashed where it runs.
func (s *Subsystem) DigestDrives() *DriveDigest {
	d := &DriveDigest{sub: s, m: make(map[string]uint64)}
	s.Observe(Observer{Drive: d.drive})
	return d
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func (d *DriveDigest) drive(net, src string, t vtime.Time, v any) {
	if d.sub.comps[src] == nil {
		return
	}
	d.mu.Lock()
	h := d.m[src]
	if h == 0 {
		h = fnvOffset
	}
	b := append(append(d.buf[:0], net...), 0)
	b = append(strconv.AppendInt(b, int64(t), 10), 0)
	b = fmt.Appendf(b, "%v", v)
	d.m[src] = fnvAdd(h, b)
	d.buf = b
	d.mu.Unlock()
}

// Sum64 folds every source's entry, in source-name order, into one
// hash. Drives at one time from different sources may come in either
// order without changing it; a reordering that matters still shows
// in the drives it causes downstream.
func (d *DriveDigest) Sum64() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	srcs := make([]string, 0, len(d.m))
	for src := range d.m {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	h := fnvOffset
	for _, src := range srcs {
		d.buf = binary.BigEndian.AppendUint64(append(append(d.buf[:0], src...), 0), d.m[src])
		h = fnvAdd(h, d.buf)
	}
	return h
}

// Value returns a source's running hash, 0 if it drove nothing.
func (d *DriveDigest) Value(src string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.m[src]
}

// Seed replaces a source's running hash with h, the one a migrating
// component brings along; 0 removes the entry.
func (d *DriveDigest) Seed(src string, h uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h == 0 {
		delete(d.m, src)
	} else {
		d.m[src] = h
	}
}

// Snapshot copies the table: source -> running hash.
func (d *DriveDigest) Snapshot() map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return maps.Clone(d.m)
}
