// Package core implements the single-host half of the Pia
// co-simulation kernel: components, interfaces, ports and nets, the
// two-level hierarchy of virtual time, the cooperative subsystem
// scheduler, checkpoint/restore, and the synchronous-memory model used
// for interrupt consistency.
//
// # Execution model
//
// A Subsystem owns a set of Components. Each component's behaviour is
// ordinary Go code running in its own goroutine, but the goroutines
// are *cooperatively* scheduled: the subsystem scheduler hands a run
// token to exactly one component at a time, exactly as Pia defeats the
// Java VM scheduler by queueing all component threads on mutexes and
// signalling the one it wants to run.
//
// Every component keeps a local virtual time; the subsystem time is
// the minimum over the local times of all live components (and pending
// event times), which maintains Pia's invariant that system time is
// always less than or equal to every local time. The scheduler always
// resumes the runnable component with the smallest local time, so a
// component blocked in Recv resumes precisely when subsystem time has
// caught up with its local time and every message it could observe has
// been delivered.
//
// With SetWorkers or SetPool the scheduler runs rounds: every component
// whose next action lies below the safe horizon is dispatched to the
// one worker pool type, SharedPool — owned by Run for its duration or
// attached from the host — and the effects merge in sequential order
// (parallel.go, optimistic.go). The sequential step is the
// cohort-of-one case of the same round, stepped inline.
//
// # Rollback
//
// Components whose behaviour implements StateSaver can be
// checkpointed. A checkpoint request is satisfied lazily: each
// component's image is captured at the earliest moment it is parked
// after the request, and always before the component receives any
// further message — the rule Pia uses to prevent the domino effect.
// Restoring a checkpoint cancels the component goroutines and
// re-enters their Run functions from the restored state. One Image,
// captured and restored in one place, serves checkpoints, migration
// and Time Warp rollback under one rule: a restore fails iff the image
// carries State the behaviour cannot take, or is Live and the
// behaviour is not a StateSaver.
//
// Re-entry runs Run from the top, so behaviours must be resumable
// from their saved state. Reactive receive loops are naturally so.
// Process-style behaviours that pace themselves must keep their loop
// position in saved state and use DelayUntil against absolute times
// derived from it — a relative Delay taken before the capture would
// be charged again on re-entry, shifting the component's timeline.
//
// Inter-subsystem channels, distributed safe-time negotiation and
// Chandy-Lamport snapshots are layered on top by packages channel,
// snapshot and node; they interact with the scheduler through the
// Gate, Tap and Inject hooks defined here.
//
// # Observation
//
// What a run did is recorded in one place, the timeline recorder
// EnableTimeline stores: the drive, checkpoint, restore, runlevel,
// stall and resume sites emit into it directly, and it drops a
// restored subsystem's discarded future itself. The On* hook fields
// are for code that must act on the scheduler goroutine — the
// debugger's watchpoints, the channel layer's flush at a stall, the
// running drive digests of mesh and service — not for recording.
package core
