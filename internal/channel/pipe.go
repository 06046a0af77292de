package channel

import (
	"errors"
	"sync"
)

// ErrPipeClosed is returned by SendBatch after Close.
var ErrPipeClosed = errors.New("channel: pipe closed")

// PipeEnd is an in-process Transport: two ends connected by unbounded
// FIFO queues with one pump goroutine per direction. Used when both
// subsystems live in the same Pia node; the node package provides the
// TCP equivalent for remote peers.
type PipeEnd struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool

	peer *PipeEnd
}

// Pipe creates a connected pair of transports.
func Pipe() (*PipeEnd, *PipeEnd) {
	a := &PipeEnd{}
	b := &PipeEnd{}
	a.cond = sync.NewCond(&a.mu)
	b.cond = sync.NewCond(&b.mu)
	a.peer = b
	b.peer = a
	return a, b
}

// SendBatch enqueues the messages for the peer, in order, under one
// lock. It never blocks.
func (p *PipeEnd) SendBatch(msgs []Message) error {
	q := p.peer
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrPipeClosed
	}
	q.queue = append(q.queue, msgs...)
	q.cond.Signal()
	return nil
}

// Receive starts the pump: fn is invoked for every incoming message,
// in order, on a dedicated goroutine, until Close.
func (p *PipeEnd) Receive(fn func(Message)) {
	go func() {
		for {
			p.mu.Lock()
			for len(p.queue) == 0 && !p.closed {
				p.cond.Wait()
			}
			if len(p.queue) == 0 && p.closed {
				p.mu.Unlock()
				return
			}
			m := p.queue[0]
			p.queue = p.queue[1:]
			p.mu.Unlock()
			fn(m)
		}
	}()
}

// Close shuts down this end; pending messages are still delivered to
// the local pump, and the peer's sends start failing.
func (p *PipeEnd) Close() error {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// Connect wires two subsystem hubs together with an in-process pipe
// and returns the two endpoints. Both sides use the same policy and
// link model, matching the paper's channels.
func Connect(a, b *Hub, policy Policy, link LinkModel) (*Endpoint, *Endpoint, error) {
	ta, tb := Pipe()
	epA, err := a.NewEndpoint(b.Subsystem().Name(), policy, link, ta)
	if err != nil {
		return nil, nil, err
	}
	epB, err := b.NewEndpoint(a.Subsystem().Name(), policy, link, tb)
	if err != nil {
		return nil, nil, err
	}
	// ta's queue holds what B sent; drain it into A's endpoint.
	ta.Receive(epA.OnMessage)
	tb.Receive(epB.OnMessage)
	return epA, epB, nil
}
