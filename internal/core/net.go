package core

import (
	"fmt"

	"repro/internal/vtime"
)

// Port is a named connection point on a component. Ports are attached
// to nets; a component sends by driving a port and receives events
// that arrive on the nets its ports attach to.
type Port struct {
	Name      string
	comp      *Component // owning component; nil for hidden ports
	net       *Net
	hidden    bool   // hidden ports belong to channel endpoints
	sink      Sink   // delivery target for hidden ports
	sinkOwner string // diagnostic label for the sink
}

// Component returns the owning component, or nil for a hidden port.
func (p *Port) Component() *Component { return p.comp }

// Net returns the net the port is attached to, or nil.
func (p *Port) Net() *Net { return p.net }

// Hidden reports whether this is a hidden port (owned by a channel
// endpoint rather than a user component).
func (p *Port) Hidden() bool { return p.hidden }

// Interface is an organizational grouping of ports on a component, as
// in Pia's component/interface/port/net hierarchy. It carries no
// simulation semantics of its own: connecting and sending happen at
// port granularity.
type Interface struct {
	Name  string
	Ports []string
}

// Sink receives the drives of the net a hidden port listens to: the
// driving component, the virtual time it sent at and the value. It is
// called on the subsystem scheduler goroutine and must not block.
type Sink func(src string, sent vtime.Time, v any)

// Msg is a value delivered to a port.
type Msg struct {
	Time   vtime.Time // delivery time (== receiver local time on return from Recv)
	Sent   vtime.Time // time the driver sent it
	Port   string     // receiving port name
	Net    string     // net it travelled on
	Value  any
	Source string // driving component
}

// Net connects ports. A value driven onto the net is delivered to
// every attached port except the driver's after the net's propagation
// delay. Nets are intra-subsystem objects; a logical net split across
// subsystems is represented by one Net per side plus hidden ports
// bridged by a channel (package channel).
type Net struct {
	Name  string
	Delay vtime.Duration

	sub   *Subsystem
	ports []*Port

	// last value driven, for Read/sampling semantics
	lastValue  any
	lastTime   vtime.Time
	lastSource string
}

// Ports returns the ports attached to the net.
func (n *Net) Ports() []*Port { return n.ports }

// LastValue returns the most recently driven value and its drive time.
func (n *Net) LastValue() (any, vtime.Time) { return n.lastValue, n.lastTime }

// attach wires a port to the net.
func (n *Net) attach(p *Port) error {
	if p.net != nil {
		return fmt.Errorf("core: port %s already attached to net %s", p.Name, p.net.Name)
	}
	p.net = n
	n.ports = append(n.ports, p)
	return nil
}

// detach unwires a port from the net. Returns false when the port was
// not attached here.
func (n *Net) detach(p *Port) bool {
	if p.net != n {
		return false
	}
	for i, q := range n.ports {
		if q == p {
			n.ports = append(n.ports[:i], n.ports[i+1:]...)
			p.net = nil
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (n *Net) String() string {
	return fmt.Sprintf("net(%s, %d ports, delay=%v)", n.Name, len(n.ports), n.Delay)
}
