// Local data-plane construction: each member compiles the shared
// blueprint, instantiates only its own slice of the system, and
// establishes the inter-member channels — the initial ones at build
// time, the ones a placement epoch adds in its dial phase.
package mesh

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/channel"
	"repro/internal/graph"
)

// viewState is a member's replica of the global placement: the graph
// view, the flat component->member map, the channel specs derived
// from the current epoch, and the peers whose channel those specs
// need but the hub does not hold yet.
type viewState struct {
	view      *graph.View
	placement map[string]string
	chanSpecs []graph.ChannelSpec
	toOpen    []string
}

// buildData builds the member's local fragment — components placed
// here, net fragments touching them — and opens the initial channels.
func (m *member) buildData() error {
	view, err := m.bp.view()
	if err != nil {
		return err
	}
	splits, chans, err := view.Partition()
	if err != nil {
		return err
	}
	vs := &viewState{
		view:      view,
		placement: make(map[string]string, len(m.bp.Components)),
		chanSpecs: chans,
	}
	for i := range m.bp.Components {
		cs := &m.bp.Components[i]
		vs.placement[cs.Name] = m.bp.Placement[cs.Name]
		if vs.placement[cs.Name] != m.name {
			continue
		}
		if err := m.instantiate(cs); err != nil {
			return err
		}
	}
	if err := m.buildNets(splits); err != nil {
		return err
	}
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

// instantiate creates one blueprint component and its ports on the
// local subsystem: at build time for a component placed here, at an
// epoch for one arriving by migration.
func (m *member) instantiate(spec *componentSpec) error {
	_, err := m.sub.NewComponent(spec.Name, spec.New(), spec.Ports...)
	return err
}

// buildNets realizes the net fragments this member hosts, creating
// missing nets and connecting locally-placed component ports. It is
// idempotent for nets and used both at build time and when an epoch
// application homes a migrated component here.
func (m *member) buildNets(splits []graph.Split) error {
	for _, sp := range splits {
		frag := sp.Fragment(m.name)
		if frag == nil {
			continue
		}
		n := m.sub.Net(sp.Net)
		if n == nil {
			var err error
			if n, err = m.sub.NewNet(sp.Net, sp.Delay); err != nil {
				return err
			}
		}
		for _, pr := range frag.Ports {
			c := m.sub.Component(pr.Component)
			if c == nil {
				return fmt.Errorf("mesh: %s: net %s references missing local component %s",
					m.name, sp.Net, pr.Component)
			}
			p := c.Port(pr.Port)
			if p == nil {
				return fmt.Errorf("mesh: %s: component %s has no port %s", m.name, pr.Component, pr.Port)
			}
			if p.Net() == n {
				continue // already connected
			}
			if err := m.sub.Connect(n, p); err != nil {
				return err
			}
		}
	}
	return nil
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
			ep, err = m.nd.Connect(m.name, m.ms.dataAddr(peer), peer, m.bp.Policy, m.bp.Link)
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
