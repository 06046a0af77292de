package core

import (
	"repro/internal/vtime"
)

// Memory models a processor component's local memory for interrupt
// consistency (Pia §2.1.1). Addresses known to be touched by
// interrupt handlers can be statically marked *synchronous*: the
// component must then ensure its local time matches system time when
// it reads or writes them (the same requirement Pia applies to all
// receives). Addresses not statically known are handled
// optimistically: ordinary accesses proceed without synchronizing,
// every read is logged, and when an interrupt handler's write is
// found to land before a logged read the simulator marks the address
// synchronous and rewinds using the checkpoint facilities.
//
// Memory belongs to one component and is only accessed from that
// component's goroutine while it holds the run token.
type Memory struct {
	c    *Component
	data map[uint32]uint64

	syncAddrs map[uint32]bool // survives rollback: dynamic marks persist

	// readLog records optimistic reads since the last checkpoint,
	// newest appended last. Cleared on checkpoint capture and
	// restore.
	readLog []memAccess

	// Violations counts detected consistency violations (for tests
	// and benchmarks). Survives rollback.
	Violations int64
}

type memAccess struct {
	addr uint32
	t    vtime.Time
}

func newMemory(c *Component) *Memory {
	return &Memory{
		c:         c,
		data:      make(map[uint32]uint64),
		syncAddrs: make(map[uint32]bool),
	}
}

// MarkSynchronous statically marks addresses as touched by interrupt
// handlers, forcing synchronization on every access.
func (m *Memory) MarkSynchronous(addrs ...uint32) {
	for _, a := range addrs {
		m.syncAddrs[a] = true
	}
}

// Synchronous reports whether the address is marked.
func (m *Memory) Synchronous(addr uint32) bool { return m.syncAddrs[addr] }

// SyncCount returns how many addresses are currently marked.
func (m *Memory) SyncCount() int { return len(m.syncAddrs) }

// Read returns the value at addr. Reads of synchronous addresses
// first wait for subsystem time to catch up with the component's
// local time; optimistic reads are logged for violation detection.
// Must be called from the owning component's goroutine.
func (m *Memory) Read(p *Proc, addr uint32) uint64 {
	if m.syncAddrs[addr] {
		p.Sync()
		p.DrainInterrupts()
	} else {
		m.readLog = append(m.readLog, memAccess{addr, p.Time()})
	}
	return m.data[addr]
}

// Write stores v at addr from the component's main computation.
// Synchronous addresses synchronize first.
func (m *Memory) Write(p *Proc, addr uint32, v uint64) {
	if m.syncAddrs[addr] {
		p.Sync()
		p.DrainInterrupts()
	}
	m.data[addr] = v
}

// HandlerWrite stores v at addr on behalf of an interrupt handler
// whose interrupt was raised at virtual time raised. If the main
// computation already read addr at a local time later than raised,
// the optimistic assumption was violated: the address is marked
// synchronous and the subsystem is asked to rewind to a checkpoint at
// or before the interrupt time. The caller should simply continue;
// the rollback unwinds it at the next scheduling step, and
// re-execution will order the accesses correctly because the address
// is now synchronous.
//
// HandlerWrite returns true when a violation was detected.
func (m *Memory) HandlerWrite(p *Proc, addr uint32, v uint64, raised vtime.Time) bool {
	if m.violatedBy(addr, raised) {
		m.Violations++
		m.syncAddrs[addr] = true
		// The rewind must put THIS component before the interrupt
		// time — a checkpoint whose cut time is early enough may
		// still hold this component far ahead (it ran uninterrupted).
		m.c.sub.requestRollbackComponent(m.c.name, raised)
		return true
	}
	m.data[addr] = v
	return false
}

// violatedBy reports whether addr was optimistically read at a local
// time strictly later than t.
func (m *Memory) violatedBy(addr uint32, t vtime.Time) bool {
	for _, acc := range m.readLog {
		if acc.addr == addr && acc.t > t {
			return true
		}
	}
	return false
}

// snapshotData copies the memory contents for a checkpoint image.
// The read log survives captures — a later rewind may land on an
// older checkpoint, and reads since that one still matter for
// violation detection — but entries older than the oldest retained
// checkpoint can never be rewound to and are pruned.
func (m *Memory) snapshotData() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(m.data))
	for k, v := range m.data {
		out[k] = v
	}
	if cks := m.c.sub.checkpoints; len(cks) > 0 {
		if img := cks[0].Image(m.c.name); img != nil {
			floor := img.LocalTime
			kept := m.readLog[:0]
			for _, acc := range m.readLog {
				if acc.t > floor {
					kept = append(kept, acc)
				}
			}
			m.readLog = kept
		}
	}
	return out
}

// restoreData resets the contents from a checkpoint image. The
// synchronous marks deliberately survive: rewinding exists precisely
// so that re-execution runs with the newly marked addresses.
func (m *Memory) restoreData(img map[uint32]uint64) {
	m.data = make(map[uint32]uint64, len(img))
	for k, v := range img {
		m.data[k] = v
	}
	m.readLog = m.readLog[:0]
}
