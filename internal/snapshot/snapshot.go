// Package snapshot implements distributed checkpoints for Pia using
// the Chandy-Lamport algorithm over the FIFO inter-subsystem
// channels, plus the coordinated restore of a tagged snapshot across
// every subsystem.
//
// After a subsystem receives (or generates) a checkpoint request, it
// performs a local checkpoint and transmits a mark on all of its
// outgoing channels. Upon receipt of a mark, a subsystem immediately
// performs a local checkpoint, before receiving anything else on that
// same channel. Each mark carries a tag (snapshot id), and a
// subsystem checkpoints only once per tag, so duplicate marks are
// ignored — exactly the paper's §2.2.4. The messages recorded on a
// channel between the local checkpoint and the arrival of the peer's
// mark are the channel's in-flight state; a coordinated restore
// replays them after rewinding every subsystem to its tagged local
// checkpoint.
//
// All agent state is touched only on the subsystem's scheduler
// goroutine: marks, data recording, captures and restores are
// serialized through the channel ingress queue, which preserves
// per-channel FIFO order — the property Chandy-Lamport requires.
package snapshot

import (
	"fmt"
	"sync"

	"repro/internal/channel"
	"repro/internal/core"
)

// Snapshot is one subsystem's completed share of a distributed
// snapshot: its local checkpoint plus the in-flight messages captured
// on each incoming channel.
type Snapshot struct {
	Tag        string
	Checkpoint *core.CheckpointSet
	InFlight   map[string][]channel.Message // peer -> messages
}

// Messages returns the total number of captured in-flight messages.
func (s *Snapshot) Messages() int {
	n := 0
	for _, ms := range s.InFlight {
		n += len(ms)
	}
	return n
}

// state tracks an in-progress snapshot.
type state struct {
	tag        string
	checkpoint *core.CheckpointSet
	pending    map[string]bool // peers whose mark is still missing
	inflight   map[string][]channel.Message
}

// Agent coordinates distributed snapshots and restores for one
// subsystem. Create it after all channel endpoints exist.
type Agent struct {
	sub *core.Subsystem
	hub *channel.Hub

	states map[string]*state

	// mu guards done and doneOrder: they are written on the scheduler
	// goroutine but read by the resilience layer's rewind hooks from
	// session goroutines.
	mu        sync.Mutex
	done      map[string]*Snapshot
	doneOrder []string

	restored map[string]bool // restore tokens already executed
	initSeq  int
	rstSeq   int
	err      error

	// OnComplete fires (on the scheduler goroutine) when this
	// subsystem's share of a snapshot is complete.
	OnComplete func(*Snapshot)
	// OnRestore fires after a coordinated restore finished locally.
	OnRestore func(tag string)
}

// NewAgent attaches an agent to the hub's endpoints.
func NewAgent(hub *channel.Hub) *Agent {
	a := &Agent{
		sub:      hub.Subsystem(),
		hub:      hub,
		states:   make(map[string]*state),
		done:     make(map[string]*Snapshot),
		restored: make(map[string]bool),
	}
	for _, ep := range hub.Endpoints() {
		a.attach(ep)
	}
	return a
}

func (a *Agent) attach(ep *channel.Endpoint) {
	e := ep
	e.SetMarkHandler(func(tag string) { a.onMark(tag, e) })
	e.SetRestoreHandler(a.doRestore)
}

// Attach wires the agent's mark and restore handlers onto an endpoint
// created after the agent was (a mesh channel dialed mid-run under a
// new placement epoch). Idempotent: attaching the same endpoint twice
// just replaces the handlers with equivalent ones.
func (a *Agent) Attach(ep *channel.Endpoint) { a.attach(ep) }

// restore rewinds this subsystem to its share of the snapshot, replays
// the captured in-flight messages and fires OnRestore: the one body
// behind a session rewind and a coordinated restore. beforeReplay,
// when set, runs between the checkpoint restore and the replay. Runs
// on the scheduler goroutine.
func (a *Agent) restore(snap *Snapshot, beforeReplay func()) error {
	if err := a.sub.RestoreCheckpoint(snap.Checkpoint); err != nil {
		return a.fail(fmt.Errorf("snapshot %s: restore: %w", snap.Tag, err))
	}
	if beforeReplay != nil {
		beforeReplay()
	}
	a.replay(snap)
	if a.OnRestore != nil {
		a.OnRestore(snap.Tag)
	}
	return nil
}

// fail latches the first error the agent hit and returns err.
func (a *Agent) fail(err error) error {
	if a.err == nil {
		a.err = err
	}
	return err
}

// replay re-injects the snapshot's captured in-flight messages.
func (a *Agent) replay(snap *Snapshot) {
	for _, msgs := range snap.InFlight {
		for _, m := range msgs {
			if m.Kind != channel.KindData {
				continue
			}
			_ = a.sub.DriveNow(m.Net, m.Source, m.Time, m.Value)
		}
	}
}

// Err returns the first error the agent hit (e.g. an
// uncheckpointable component).
func (a *Agent) Err() error { return a.err }

// Initiate starts a distributed snapshot and returns its tag. The
// snapshot completes asynchronously; watch OnComplete or Completed.
func (a *Agent) Initiate() string {
	a.initSeq++
	tag := fmt.Sprintf("snap:%s:%d", a.sub.Name(), a.initSeq)
	a.sub.InjectFunc(func() bool {
		a.onMark(tag, nil)
		return false
	})
	return tag
}

// Completed returns the finished snapshot for a tag, or nil.
func (a *Agent) Completed(tag string) *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.done[tag]
}

// LatestTag returns the most recent completed snapshot tag, or "".
// Safe from any goroutine — this is the resilience layer's
// latest-checkpoint rewind hook.
func (a *Agent) LatestTag() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := len(a.doneOrder) - 1; i >= 0; i-- {
		if s := a.done[a.doneOrder[i]]; s != nil && s.Checkpoint != nil {
			return a.doneOrder[i]
		}
	}
	return ""
}

// HasTag reports whether the tagged snapshot completed here. Safe
// from any goroutine — the resilience layer's tag-check rewind hook.
func (a *Agent) HasTag(tag string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.done[tag]
	return s != nil && s.Checkpoint != nil
}

// RewindTo restores the tagged snapshot locally in response to a
// session-level rewind (the peer is doing the same; no restore orders
// travel the channel, which has just been reset). The work runs on
// the scheduler goroutine after everything already queued — including
// every message of the dead connection epoch — has been processed.
// Hook order: beforeRestore fires first (the node layer resets the
// channel protocol there), then the checkpoint restore; beforeReplay
// fires between the restore and the in-flight replay (the node layer
// reopens channel egress there, since replayed drives may forward
// across the channel immediately); done fires last with the outcome.
// If the subsystem's run loop has already exited, done fires with an
// error instead of waiting on a scheduler that will never come back.
// Safe from any goroutine.
func (a *Agent) RewindTo(tag string, beforeRestore, beforeReplay func(), done func(error)) {
	a.sub.InjectCtl(func() bool {
		if beforeRestore != nil {
			beforeRestore()
		}
		var err error
		if snap := a.Completed(tag); snap != nil {
			err = a.restore(snap, beforeReplay)
		} else {
			err = a.fail(fmt.Errorf("snapshot: rewind to unknown tag %q", tag))
		}
		if done != nil {
			done(err)
		}
		return false
	}, func(err error) {
		// The run loop exited before servicing the rewind (it can
		// only happen in the narrow window between a clean departure
		// and the rewind negotiation — the departure gate holds the
		// loop alive while any session business is pending). Only
		// done may run here: this fires off the scheduler goroutine,
		// so a.err is out of bounds.
		if done != nil {
			done(fmt.Errorf("snapshot: rewind to %q: %w", tag, err))
		}
	})
}

// onMark handles a mark (from == nil means self-initiated). Runs on
// the scheduler goroutine.
func (a *Agent) onMark(tag string, from *channel.Endpoint) {
	st := a.states[tag]
	if st == nil {
		if a.Completed(tag) != nil {
			return // stale duplicate mark for a finished snapshot
		}
		// First mark for this tag: checkpoint locally before
		// receiving anything else, then relay marks everywhere and
		// start recording the other channels.
		cs, err := a.sub.CaptureNow(tag)
		if err != nil {
			if a.err == nil {
				a.err = fmt.Errorf("snapshot %s: %w", tag, err)
			}
			return
		}
		st = &state{
			tag:        tag,
			checkpoint: cs,
			pending:    make(map[string]bool),
			inflight:   make(map[string][]channel.Message),
		}
		a.states[tag] = st
		for _, ep := range a.hub.Endpoints() {
			ep.SendMark(tag)
			if from != nil && ep.Peer() == from.Peer() {
				// The channel the mark arrived on has an empty
				// in-flight state by definition.
				st.inflight[ep.Peer()] = nil
				continue
			}
			st.pending[ep.Peer()] = true
			ep.SetRecording(true)
		}
	} else if from != nil && st.pending[from.Peer()] {
		// Subsequent mark: the in-flight set of that channel is
		// whatever was recorded since our checkpoint.
		st.inflight[from.Peer()] = from.TakeRecorded()
		delete(st.pending, from.Peer())
	}
	if len(st.pending) == 0 {
		delete(a.states, tag)
		snap := &Snapshot{Tag: tag, Checkpoint: st.checkpoint, InFlight: st.inflight}
		a.mu.Lock()
		a.done[tag] = snap
		a.doneOrder = append(a.doneOrder, tag)
		a.mu.Unlock()
		if a.OnComplete != nil {
			a.OnComplete(snap)
		}
	}
}

// RestoreTag initiates a coordinated restore of the tagged snapshot
// across every subsystem. Safe from any goroutine.
func (a *Agent) RestoreTag(tag string) {
	token := a.newToken(tag)
	a.sub.InjectFunc(func() bool {
		a.doRestore(token)
		return false
	})
}

func (a *Agent) newToken(tag string) string {
	a.rstSeq++
	return fmt.Sprintf("%s|%s#%d", tag, a.sub.Name(), a.rstSeq)
}

// doRestore executes a restore token — RestoreTag's own or a peer's
// incoming order — locally and forwards it. Scheduler goroutine.
func (a *Agent) doRestore(token string) {
	if a.restored[token] {
		return
	}
	a.restored[token] = true
	tag := token
	for i := 0; i < len(token); i++ {
		if token[i] == '|' {
			tag = token[:i]
			break
		}
	}
	snap := a.Completed(tag)
	if snap == nil {
		a.fail(fmt.Errorf("snapshot: restore of unknown tag %q", tag))
		return
	}
	for _, ep := range a.hub.Endpoints() {
		ep.SendRestore(token)
	}
	_ = a.restore(snap, nil)
}
