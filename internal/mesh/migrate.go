// Live component migration: the leader's script and the member-side
// phase bodies.
//
// The script runs only at a held drain barrier with horizon h; each
// arrow is one call, each name on the left a timeline span:
//
//	quiesce   barrier held: all channels empty, virtual time <= h final
//	   |
//	snapshot  opPrepare -> the source extracts the ComponentImage at tag
//	   |      "mig-<epoch>@<h>" (a degenerate Chandy-Lamport cut)
//	transfer  opApply -> everyone, the image and digest riding only
//	   |      toward the destination
//	splice    each member: view.Move, re-derive Partition, source
//	   |      removes the component, dest runs the description again
//	   |      for a fresh instance and adopts the state, everyone
//	   |      rebinds channel endpoints to the new net splits
//	resume    opDial -> everyone opens the channels the new placement
//	          needs that did not exist; the next opStep resumes the run
//
// Failure cases: a source that cannot capture the component — one whose
// behaviour saves no state, a value with no channel codec, an image
// over maxImage, a pending scheduler-control event — refuses the
// snapshot phase, and the leader drops that move and runs on: nothing
// has changed yet, because no apply was sent. A member that cannot
// apply the epoch, or dial what it needs, refuses and the leader aborts
// the run (placement must never fork). Rewinds to snapshot tags taken
// under an older epoch are refused by construction (tags do not
// survive migration — see DESIGN.md §10).
package mesh

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/design"
	"repro/internal/snapshot"
	"repro/internal/vtime"
)

// runMigrations executes every migration due at the held barrier t:
// scheduled plans with At <= t plus any queued live requests.
func (m *member) runMigrations(t vtime.Time) error {
	var due []move
	m.mu.Lock()
	for len(m.plans) > 0 && m.plans[0].At <= t {
		due = append(due, m.plans[0].move)
		m.plans = m.plans[1:]
	}
	m.mu.Unlock()
	for queued := true; queued; {
		select {
		case mv := <-m.migReqs:
			due = append(due, mv)
		default:
			queued = false
		}
	}
	for _, mv := range due {
		if err := m.migrate(t, mv); err != nil {
			return err
		}
	}
	return nil
}

// resolve checks a wanted move against the current placement and
// returns it with From filled in.
func (m *member) resolve(mv move) (move, error) {
	m.mu.Lock()
	mv.From = m.design.View.Subsystem(mv.Comp)
	m.mu.Unlock()
	if mv.From == "" {
		return mv, fmt.Errorf("mesh: migrate unknown component %q", mv.Comp)
	}
	if !slices.Contains(m.memberSet, mv.To) {
		return mv, fmt.Errorf("mesh: migrate %s to unknown member %q", mv.Comp, mv.To)
	}
	return mv, nil
}

// queueMigration is the leader's verdict on a live request: queued
// for the next barrier (nil) or the reason it is not.
func (m *member) queueMigration(mv move) error {
	if !m.IsLeader() {
		return fmt.Errorf("%s is not the leader, %s is", m.name, m.leaderNm)
	}
	select {
	case <-m.runDone:
		return fmt.Errorf("the run is over")
	default:
	}
	if _, err := m.resolve(mv); err != nil {
		return err
	}
	select {
	case m.migReqs <- mv:
		return nil
	default:
		return fmt.Errorf("%d migrations already wait for the next barrier", maxQueuedMigrations)
	}
}

// migrate moves one component at the held barrier with horizon t.
func (m *member) migrate(t vtime.Time, mv move) error {
	mv, err := m.resolve(mv)
	if err != nil {
		return err
	}
	if mv.From == mv.To {
		return nil // already home
	}
	mv.Epoch = m.epoch.Load() + 1
	span := func(phase string) {
		if m.tl != nil {
			m.tl.Migrate(m.name, mv.Comp, mv.From, mv.To, phase, t)
		}
	}
	start := time.Now()
	span("quiesce")

	prepared, err := m.call([]string{mv.From}, request{Op: opPrepare, Until: t, Move: mv})
	var refused *Refused
	if errors.As(err, &refused) {
		// The source could not capture the component; no apply was
		// sent, so nothing moved: drop the move, keep its reason, run on.
		span("dropped: " + refused.Reason)
		m.mu.Lock()
		m.stats.Dropped++
		m.stats.LastDrop = refused.Reason
		m.mu.Unlock()
		return nil
	}
	if err != nil {
		return err
	}
	span("snapshot")
	span("transfer")

	applyStart := time.Now()
	if _, err := m.call(m.memberSet, request{Op: opApply, Move: mv, Image: prepared[mv.From].Image}); err != nil {
		return err
	}
	propagation := time.Since(applyStart)
	span("splice")

	if _, err := m.call(m.memberSet, request{Op: opDial}); err != nil {
		return err
	}
	span("resume")

	m.mu.Lock()
	m.stats.Migrations++
	m.stats.EpochPropagation = propagation
	m.stats.MigrationWall = time.Since(start)
	m.stats.MigrationVirtual = 0 // the whole script ran between two rounds
	m.mu.Unlock()
	return nil
}

// extract captures the migrating component's image (source member
// only) under a tag naming the epoch and the barrier t, so a capture a
// dropped move left behind is never reused at a later barrier.
func (m *member) extract(mv move, t vtime.Time) (image, error) {
	ci, err := snapshot.ExtractComponent(m.sub, fmt.Sprintf("mig-%d@%d", mv.Epoch, int64(t)), mv.Comp)
	if err != nil {
		return image{}, err
	}
	b, err := ci.Encode()
	if err == nil && len(b) > maxImage {
		err = fmt.Errorf("mesh: image of %s is %d bytes, over the control plane's %d", mv.Comp, len(b), maxImage)
	}
	return image{Bytes: b, Digest: m.digest.Value(mv.Comp)}, err
}

// applyEpoch applies one placement epoch locally: move the component
// in the description's view, re-derive the net splits, remove the
// component or make a fresh one from the description and adopt its
// state, and rebind channel endpoints to the new splits. Peers a channel newly leads to are left for the
// dial phase; channels that lost all nets stay connected but idle
// (reused if a later epoch routes nets over them again).
func (m *member) applyEpoch(mv move, img image) error {
	vs := m.view // written only on the member loop, and by Start before it runs
	if vs == nil {
		return fmt.Errorf("mesh: %s: epoch %d before build", m.name, mv.Epoch)
	}
	oldNets := netsByPeer(vs.chanSpecs, m.name)
	m.mu.Lock()
	err := m.design.View.Move(mv.To, mv.Comp)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	splits, chans, err := m.design.Partition()
	if err != nil {
		m.mu.Lock()
		m.design.View.Move(mv.From, mv.Comp) // the rules refuse this placement: keep the old one
		m.mu.Unlock()
		return err
	}

	if m.name == mv.From {
		m.digest.Seed(mv.Comp, 0)
		if err := m.sub.RemoveComponent(mv.Comp); err != nil {
			return err
		}
	}
	if m.name == mv.To {
		c, err := m.fresh(mv.Comp)
		if err != nil {
			return err
		}
		if err := c.Instantiate(m.sub); err != nil {
			return err
		}
		if err := design.Resplit(m.sub, splits); err != nil {
			return err
		}
		ci, err := snapshot.DecodeComponentImage(img.Bytes)
		if err != nil {
			return err
		}
		if err := snapshot.AdoptComponent(m.sub, ci); err != nil {
			return err
		}
		m.digest.Seed(mv.Comp, img.Digest)
	}

	// Splice: rebind endpoints to the new per-peer net sets.
	newNets := netsByPeer(chans, m.name)
	vs.toOpen = nil
	for _, peer := range m.memberSet {
		ep := m.hub.Endpoint(peer)
		if ep == nil {
			if len(newNets[peer]) > 0 {
				vs.toOpen = append(vs.toOpen, peer)
			}
			continue
		}
		for nn := range oldNets[peer] {
			if newNets[peer][nn] {
				continue
			}
			if n := m.sub.Net(nn); n != nil {
				if err := ep.UnbindNet(n); err != nil {
					return err
				}
			}
		}
		for nn := range newNets[peer] {
			if oldNets[peer][nn] {
				continue
			}
			if err := m.bindNet(ep, nn); err != nil {
				return err
			}
		}
	}

	m.mu.Lock()
	vs.chanSpecs = chans
	m.mu.Unlock()
	m.epoch.Store(mv.Epoch)
	return nil
}
