package core

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/vtime"
)

// Image is one component's saved state inside a checkpoint set.
type Image struct {
	Component string
	LocalTime vtime.Time
	Runlevel  string
	Live      bool // goroutine was alive (Run had not returned)
	EOF       bool // Recv had already been told the simulation ended

	// State is the behaviour state from StateSaver.SaveState. A saver
	// may return nil or empty bytes (a pure reactor has nothing to
	// save); a behaviour that is not checkpointable leaves it nil,
	// which is only legal when the component was already done.
	State []byte
	// Shared reports that State is byte-identical to the previous
	// checkpoint's image and was not re-stored (incremental mode).
	Shared bool

	// Inbox is the component's undelivered messages at capture time.
	// captureImage leaves it to the caller: checkpoints and migration
	// snapshot the queue, a speculative dispatch journals its pops
	// instead (see optimistic.go).
	Inbox []event.Event

	// MemData is the component's synchronous-memory contents, nil if
	// the component uses no memory model.
	MemData map[uint32]uint64
}

// captureImage returns c's saved state — every Image field but the
// inbox. It is the one place a component is imaged: checkpoints,
// migration and speculative dispatch all go through it.
func (c *Component) captureImage() (Image, error) {
	img := Image{
		Component: c.name,
		LocalTime: c.localTime,
		Runlevel:  c.runlevel,
		Live:      c.status != statusDone,
		EOF:       c.eofSignaled,
	}
	if sv := c.saver(); sv != nil {
		st, err := sv.SaveState()
		if err != nil {
			return img, err
		}
		img.State = st
	} else if img.Live {
		return img, errNotCheckpointable
	}
	if c.memory != nil {
		img.MemData = c.memory.snapshotData()
	}
	return img, nil
}

// restoreImage unwinds c's goroutine and rewinds c to img — the
// inverse of captureImage, the inbox again staying with the caller.
// The one restore rule: it is an error iff the image carries State the
// behaviour cannot take, or is Live and the behaviour is not a
// StateSaver; a saver's nil or empty State is restored like any other
// (RestoreState(nil) undoes what SaveState() == nil saved). The
// component is reset either way, so a failed restore never leaves an
// unwound goroutine behind a live status.
func (c *Component) restoreImage(img *Image) error {
	c.sub.kill(c)
	var err error
	if sv := c.saver(); sv == nil {
		if len(img.State) > 0 || img.Live {
			err = errNotCheckpointable
		}
	} else if len(img.State) > 0 || img.Live {
		err = sv.RestoreState(img.State)
	}
	c.localTime = img.LocalTime
	c.runlevel = img.Runlevel
	c.eofSignaled = img.EOF
	c.reset(img.Live)
	if c.memory != nil {
		c.memory.restoreData(img.MemData)
	}
	return err
}

// reset leaves c, whose goroutine the caller has unwound, either ready
// to re-enter Run from the top (live) or finished.
func (c *Component) reset(live bool) {
	c.err = nil
	if live {
		c.status = statusNew
		c.token = make(chan tokenMsg)
	} else {
		c.status = statusDone
	}
	c.recvPorts = nil
	c.recvDeadline = vtime.Infinity
}

// refillInbox replaces c's undelivered messages with the image's. An
// image event that is not for a port of c (see restock) fails the
// refill and leaves the inbox empty.
func (c *Component) refillInbox(img *Image) error {
	c.inbox.Reset()
	for i := range img.Inbox {
		if err := c.restock(&img.Inbox[i]); err != nil {
			c.inbox.Reset()
			return err
		}
	}
	return nil
}

// NetImage is one net's sampling state (LastValue et al.): what a
// checkpoint set keeps for every net of the subsystem, and what a
// migration carries for the nets its component touches, so re-homed
// fragments answer Read exactly as the source's would have.
type NetImage struct {
	Net    string
	Value  any
	Time   vtime.Time
	Source string
}

// Image returns the net's sampling state.
func (n *Net) Image() NetImage {
	return NetImage{Net: n.Name, Value: n.lastValue, Time: n.lastTime, Source: n.lastSource}
}

// RestoreNets seeds the sampling state of every named net the
// subsystem has, without fanning anything out; images of nets it does
// not have are skipped.
func (s *Subsystem) RestoreNets(nets []NetImage) {
	for _, ni := range nets {
		if n := s.nets[ni.Net]; n != nil {
			n.lastValue, n.lastTime, n.lastSource = ni.Value, ni.Time, ni.Source
		}
	}
}

// CheckpointSet is a consistent image of an entire subsystem: every
// component's state, local time and undelivered messages, plus net
// values, all captured at one scheduler step. Because every component
// is parked when the scheduler captures, the set is a consistent cut:
// no message can cross it, which is how this implementation realizes
// Pia's rule that each component saves before receiving any message
// that follows a checkpoint request (the domino-effect guard).
type CheckpointSet struct {
	ID   uint64
	Tag  string // Chandy-Lamport snapshot id, "" for local checkpoints
	Time vtime.Time

	images map[string]*Image
	nets   []NetImage
}

// Image returns the named component's image, or nil.
func (cs *CheckpointSet) Image(comp string) *Image { return cs.images[comp] }

// Components returns the number of component images in the set.
func (cs *CheckpointSet) Components() int { return len(cs.images) }

// Bytes reports the storage the set holds, counting shared
// (incrementally deduplicated) states once as zero.
func (cs *CheckpointSet) Bytes() int {
	n := 0
	for _, img := range cs.images {
		if !img.Shared {
			n += len(img.State)
		}
		n += len(img.Inbox) * 64 // rough event bookkeeping
		n += len(img.MemData) * 12
	}
	return n
}

// RequestCheckpoint schedules a checkpoint; the scheduler captures it
// at its next step, when every component is parked. A non-empty tag
// names a distributed (Chandy-Lamport) snapshot: a subsystem performs
// the local checkpoint only once per tag, so duplicate marks are
// ignored. Safe from any goroutine.
func (s *Subsystem) RequestCheckpoint(tag string) {
	s.extGen.Add(1)
	s.mu.Lock()
	s.ckptTags = append(s.ckptTags, tag)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// SetCheckpointRetention sets how many checkpoint sets are kept
// (oldest dropped first). The default is 8.
func (s *Subsystem) SetCheckpointRetention(n int) {
	if n < 1 {
		n = 1
	}
	s.ckptKeep = n
}

// SetIncrementalCheckpoints toggles incremental mode: component
// states identical to the previous checkpoint are shared rather than
// re-stored. This is the paper's planned "incremental rather than
// total checkpoints" extension.
func (s *Subsystem) SetIncrementalCheckpoints(on bool) { s.ckptIncr = on }

// SetAutoCheckpoint makes the scheduler capture a checkpoint whenever
// virtual time has advanced by at least d since the last automatic
// one. Zero disables. Required for optimistic channels and for
// optimistic interrupt handling, which must be able to rewind.
func (s *Subsystem) SetAutoCheckpoint(d vtime.Duration) { s.autoCkpt = d }

// Checkpoints returns the retained checkpoint sets, oldest first.
func (s *Subsystem) Checkpoints() []*CheckpointSet {
	out := make([]*CheckpointSet, len(s.checkpoints))
	copy(out, s.checkpoints)
	return out
}

// LatestCheckpoint returns the most recent checkpoint, or nil.
func (s *Subsystem) LatestCheckpoint() *CheckpointSet {
	if len(s.checkpoints) == 0 {
		return nil
	}
	return s.checkpoints[len(s.checkpoints)-1]
}

// CaptureNow captures a checkpoint immediately. Only legal when the
// subsystem is not running (between Run calls) or from scheduler
// hooks; the scheduler itself uses it to honour RequestCheckpoint.
func (s *Subsystem) CaptureNow(tag string) (*CheckpointSet, error) {
	return s.capture(tag)
}

func (s *Subsystem) capture(tag string) (*CheckpointSet, error) {
	if tag != "" {
		if s.doneTags == nil {
			s.doneTags = make(map[string]bool)
		}
		if s.doneTags[tag] {
			return nil, nil // already checkpointed for this snapshot id
		}
		s.doneTags[tag] = true
	}
	s.ckptNextID++
	cs := &CheckpointSet{
		ID:     s.ckptNextID,
		Tag:    tag,
		Time:   s.now,
		images: make(map[string]*Image, len(s.order)),
		nets:   make([]NetImage, 0, len(s.nets)),
	}
	var prev *CheckpointSet
	if s.ckptIncr && len(s.checkpoints) > 0 {
		prev = s.checkpoints[len(s.checkpoints)-1]
	}
	for _, c := range s.order {
		img, err := c.captureImage()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint of %s: %w", c.name, err)
		}
		if prev != nil && c.saver() != nil {
			if p := prev.images[c.name]; p != nil && bytes.Equal(p.State, img.State) {
				img.State = p.State
				img.Shared = true
			}
		}
		img.Inbox = c.inboxEvents()
		cs.images[c.name] = &img
	}
	for _, n := range s.nets {
		cs.nets = append(cs.nets, n.Image())
	}
	s.checkpoints = append(s.checkpoints, cs)
	if len(s.checkpoints) > s.ckptKeep {
		drop := len(s.checkpoints) - s.ckptKeep
		s.checkpoints = append([]*CheckpointSet(nil), s.checkpoints[drop:]...)
	}
	atomic.AddInt64(&s.stats.Checkpoints, 1)
	s.tlRec.Checkpoint(s.name, cs.Tag, cs.Time)
	return cs, nil
}

// restoreBefore restores the latest checkpoint with Time <= t.
func (s *Subsystem) restoreBefore(t vtime.Time) error {
	var target *CheckpointSet
	for i := len(s.checkpoints) - 1; i >= 0; i-- {
		if s.checkpoints[i].Time <= t {
			target = s.checkpoints[i]
			break
		}
	}
	if target == nil {
		return fmt.Errorf("%w (requested <= %v)", errNoCheckpoint, t)
	}
	return s.RestoreCheckpoint(target)
}

// restoreComponentBefore restores the latest checkpoint in which the
// named component's local time is <= t.
func (s *Subsystem) restoreComponentBefore(comp string, t vtime.Time) error {
	var target *CheckpointSet
	for i := len(s.checkpoints) - 1; i >= 0; i-- {
		if img := s.checkpoints[i].Image(comp); img != nil && img.LocalTime <= t {
			target = s.checkpoints[i]
			break
		}
	}
	if target == nil {
		return fmt.Errorf("%w (component %s <= %v)", errNoCheckpoint, comp, t)
	}
	return s.RestoreCheckpoint(target)
}

// RestoreCheckpoint rewinds the whole subsystem to the given
// checkpoint set: component goroutines are unwound, behaviour states
// restored, inboxes and net values reset, and virtual time set back
// to the capture time. Checkpoints from the discarded future are
// dropped. Legal on the scheduler goroutine or between runs.
func (s *Subsystem) RestoreCheckpoint(cs *CheckpointSet) error {
	for _, c := range s.order {
		if cs.images[c.name] == nil {
			return fmt.Errorf("core: checkpoint #%d has no image for %s", cs.ID, c.name)
		}
	}
	for _, c := range s.order {
		img := cs.images[c.name]
		if err := c.restoreImage(img); err != nil {
			return fmt.Errorf("core: restore of %s: %w", c.name, err)
		}
		if err := c.refillInbox(img); err != nil {
			return fmt.Errorf("core: restore of %s: %w", c.name, err)
		}
	}
	s.RestoreNets(cs.nets)
	s.now = cs.Time
	// Automatic checkpointing resumes from the restored point: the
	// replay timeline needs its own cuts, or a second rollback could
	// land before messages redelivered in the first replay and lose
	// them (their channel messages are consumed and will not come
	// again).
	s.lastAuto = cs.Time
	// Drop checkpoints from the abandoned future.
	kept := s.checkpoints[:0]
	for _, old := range s.checkpoints {
		if old.ID <= cs.ID {
			kept = append(kept, old)
		}
	}
	s.checkpoints = kept
	s.fatal = nil
	s.resetActive()
	atomic.AddInt64(&s.stats.Restores, 1)
	s.tlRec.Restore(s.name, cs.Tag, cs.Time)
	return nil
}
