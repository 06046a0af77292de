// Local data-plane construction: each member runs the shared
// description, builds only its own slice of the system, and
// establishes the inter-member channels — the initial ones at build
// time, the ones a placement epoch adds in its dial phase.
package mesh

import (
	"fmt"
	"slices"
	"time"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/design"
	"repro/internal/graph"
)

// viewState is what a member derives from the description's view at
// the current epoch: the channel specs, and the peers whose channel
// those specs need but the hub does not hold yet.
type viewState struct {
	chanSpecs []graph.ChannelSpec
	toOpen    []string
}

// describe runs a description on a fresh builder.
func describe(fn func(*pia.SystemBuilder) error) (*pia.SystemBuilder, *design.System, error) {
	b := pia.NewSystem("mesh")
	if err := fn(b); err != nil {
		return nil, nil, fmt.Errorf("describe: %w", err)
	}
	d, err := b.Design()
	return b, d, err
}

// fresh runs the description again for a never-run instance of comp,
// with its ports and runlevel: the component a migration brings in.
func (m *member) fresh(comp string) (*design.Component, error) {
	_, d, err := describe(m.describe)
	if err != nil {
		return nil, fmt.Errorf("mesh: %s: %w", m.name, err)
	}
	c := d.Comps[comp]
	if c == nil {
		return nil, fmt.Errorf("mesh: %s: the description has no component %q", m.name, comp)
	}
	return c, nil
}

// buildData derives the channels the description's view needs, whose
// slice New already built, and opens the initial ones.
func (m *member) buildData() error {
	_, chans, err := m.design.Partition()
	if err != nil {
		return err
	}
	vs := &viewState{chanSpecs: chans}
	for _, cs := range chans {
		if peer := peerOf(cs, m.name); peer != "" {
			vs.toOpen = append(vs.toOpen, peer)
		}
	}
	m.mu.Lock()
	m.view = vs
	m.mu.Unlock()
	if err := m.openChannels(); err != nil {
		return err
	}
	m.nd.FinishAgents()
	return nil
}

// peerOf returns the other end of a channel spec that touches me, ""
// for one that does not.
func peerOf(cs graph.ChannelSpec, me string) string {
	switch me {
	case cs.A:
		return cs.B
	case cs.B:
		return cs.A
	}
	return ""
}

// netsByPeer extracts, for one member, the set of nets each of its
// channels carries: peer name -> net name set.
func netsByPeer(chans []graph.ChannelSpec, me string) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, cs := range chans {
		peer := peerOf(cs, me)
		if peer == "" {
			continue
		}
		set := make(map[string]bool, len(cs.Nets))
		for _, n := range cs.Nets {
			set[n] = true
		}
		out[peer] = set
	}
	return out
}

// openChannels establishes the channel toward every peer in the
// view's toOpen list: the lexicographically smaller member dials, the
// larger accepts, and both attach the snapshot agent (once there is
// one, so marks and restores traverse a mid-run channel) and bind the
// crossing nets. Every member has applied the same epoch before any
// of them runs this (the leader sequences the phases), so both ends
// know the nets to bind.
func (m *member) openChannels() error {
	vs := m.view // written only on the member loop, and by Start before it runs
	if vs == nil {
		return nil
	}
	for _, cs := range vs.chanSpecs {
		peer := peerOf(cs, m.name)
		if !slices.Contains(vs.toOpen, peer) {
			continue
		}
		var (
			ep  *channel.Endpoint
			err error
		)
		if m.name < peer {
			ch := m.design.Channel(m.name, peer)
			ep, err = m.nd.Connect(m.name, m.addrs[peer], peer, ch.Policy, ch.Link)
		} else {
			ep, err = m.acceptChannel(peer)
		}
		if err != nil {
			return fmt.Errorf("mesh: %s: data channel with %s: %w", m.name, peer, err)
		}
		if m.hosted.Agent != nil {
			m.hosted.Agent.Attach(ep)
		}
		for _, nn := range cs.Nets {
			if err := m.bindNet(ep, nn); err != nil {
				return err
			}
		}
	}
	vs.toOpen = nil
	return nil
}

// bindNet binds one crossing net on an endpoint. Remote fragments
// share the logical net's name, so the remote name equals the local
// one.
func (m *member) bindNet(ep *channel.Endpoint, nn string) error {
	n := m.sub.Net(nn)
	if n == nil {
		return fmt.Errorf("mesh: %s: channel to %s binds unknown net %s", m.name, ep.Peer(), nn)
	}
	return ep.BindNet(n, nn)
}

// acceptedFrom returns the slot the node's accept path drops the
// endpoint dialed by peer into. Either side may ask first.
func (m *member) acceptedFrom(peer string) chan *channel.Endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot := m.accepted[peer]
	if slot == nil {
		slot = make(chan *channel.Endpoint, 1)
		m.accepted[peer] = slot
	}
	return slot
}

// acceptChannel waits for the endpoint peer dials. Receiving it from
// the accept goroutine both sequences the build and carries the
// happens-before the race detector needs.
func (m *member) acceptChannel(peer string) (*channel.Endpoint, error) {
	patience := time.NewTimer(connectTimeout)
	defer patience.Stop()
	select {
	case ep := <-m.acceptedFrom(peer):
		return ep, nil
	case <-patience.C:
		return nil, fmt.Errorf("no dial within %v", connectTimeout)
	case <-m.closed:
		return nil, fmt.Errorf("%s closed", m.name)
	}
}
