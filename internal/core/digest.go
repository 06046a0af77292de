package core

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sync"

	"repro/internal/vtime"
)

// DriveDigest is a running FNV-64a digest of a subsystem's net drives,
// one "net|src|time|value" line each: the witness runs are compared by.
// Sum64 may be read from any goroutine while the subsystem runs.
type DriveDigest struct {
	mu sync.Mutex
	h  hash.Hash64
}

// DigestDrives sets s.OnDrive to feed a new digest, which it returns.
func (s *Subsystem) DigestDrives() *DriveDigest {
	d := &DriveDigest{h: fnv.New64a()}
	s.OnDrive = func(net, src string, t vtime.Time, v any) {
		d.mu.Lock()
		fmt.Fprintf(d.h, "%s|%s|%d|%v\n", net, src, t, v)
		d.mu.Unlock()
	}
	return d
}

// Sum64 returns the digest of the drives so far.
func (d *DriveDigest) Sum64() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.h.Sum64()
}
