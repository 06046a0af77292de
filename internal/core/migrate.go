package core

import "fmt"

// This file holds the subsystem surgery primitives live component
// migration is built on: detaching hidden (channel) ports from nets,
// removing a component wholesale, and restoring a single component
// image captured on another subsystem. All of them are only legal
// between runs — the mesh control plane calls them at a drained
// step barrier, when no scheduler goroutine is inside Run and every
// channel is provably empty.

// DetachHidden removes the named hidden port from the net. It is the
// inverse of AttachHidden, used when a net's channel binding moves to
// another endpoint under a new placement epoch.
func (s *Subsystem) DetachHidden(n *Net, name string) error {
	if s.running {
		return fmt.Errorf("core: cannot detach hidden port %q while running", name)
	}
	if n.sub != s {
		return fmt.Errorf("core: net %s belongs to another subsystem", n.Name)
	}
	for _, p := range n.ports {
		if p.hidden && p.Name == name {
			n.detach(p)
			return nil
		}
	}
	return fmt.Errorf("core: net %s has no hidden port %q", n.Name, name)
}

// RemoveComponent detaches the named component from every net, unwinds
// its goroutine and removes it from the subsystem. Its pending inbox
// events are discarded with it (a migration captures them in the
// component image first). Only legal between runs.
func (s *Subsystem) RemoveComponent(name string) error {
	if s.running {
		return fmt.Errorf("core: cannot remove component %q while running", name)
	}
	c := s.comps[name]
	if c == nil {
		return fmt.Errorf("core: no component %q", name)
	}
	s.kill(c)
	c.status = statusDone
	for _, p := range c.ports {
		if p.net != nil {
			p.net.detach(p)
		}
	}
	delete(s.comps, name)
	kept := s.order[:0]
	for _, o := range s.order {
		if o != c {
			kept = append(kept, o)
		}
	}
	s.order = kept
	// Renumber so creation-order tie-breaks stay dense and unique:
	// NewComponent assigns index = len(order), which must not collide
	// with a surviving component's index.
	for i, o := range s.order {
		o.index = i
	}
	s.resetActive()
	return nil
}

// RestoreComponentImage applies a single component image — captured by
// CaptureNow on this or another subsystem — to an existing component.
// The component must already have been created with the right
// behaviour and ports; the image supplies behaviour state, local time,
// runlevel, liveness, EOF flag, undelivered inbox events and memory
// contents. The migration path uses it to adopt a component whose
// image travelled from another node. The restore rule is
// restoreImage's, the same one RestoreCheckpoint applies.
func (s *Subsystem) RestoreComponentImage(img *Image) error {
	if s.running {
		return fmt.Errorf("core: cannot restore component %q while running", img.Component)
	}
	c := s.comps[img.Component]
	if c == nil {
		return fmt.Errorf("core: no component %q to restore into", img.Component)
	}
	err := c.restoreImage(img)
	if ierr := c.refillInbox(img); err == nil {
		err = ierr
	}
	s.resetActive()
	if err != nil {
		return fmt.Errorf("core: restore of %s: %w", c.name, err)
	}
	return nil
}
