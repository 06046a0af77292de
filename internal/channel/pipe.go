package channel

import (
	"errors"
	"sync"

	"repro/internal/wire"
)

// ErrPipeClosed is returned by SendFrame after Close.
var ErrPipeClosed = errors.New("channel: pipe closed")

// PipeEnd is an in-process Transport: two ends connected by unbounded
// FIFO queues with one pump goroutine per direction. Used when both
// subsystems live in the same Pia node; the node package provides the
// TCP equivalent for remote peers. A frame is decoded as it is sent,
// with the receiving end's own BatchDecoder, so in-process and TCP
// channels carry the same bytes through the same codec.
type PipeEnd struct {
	mu     sync.Mutex
	cond   *sync.Cond
	dec    *BatchDecoder
	queue  *[]Message // decoded, not yet taken by the pump; nil when none
	closed bool

	peer *PipeEnd
}

// Pipe creates a connected pair of transports.
func Pipe() (*PipeEnd, *PipeEnd) {
	a := &PipeEnd{dec: NewBatchDecoder()}
	b := &PipeEnd{dec: NewBatchDecoder()}
	a.cond = sync.NewCond(&a.mu)
	b.cond = sync.NewCond(&b.mu)
	a.peer = b
	b.peer = a
	return a, b
}

// SendFrame decodes the frame onto the peer's queue, in order, under
// one lock. It never blocks, and keeps nothing of frame.
func (p *PipeEnd) SendFrame(frame []byte) error {
	q := p.peer
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrPipeClosed
	}
	if q.queue == nil {
		q.queue = BatchBuf()
	}
	var err error
	*q.queue, _, err = q.dec.DecodeBatchAppend(frame[wire.HeaderLen:], *q.queue)
	q.cond.Signal()
	return err
}

// Receive starts the pump: on a dedicated goroutine, until Close, fn
// is handed everything decoded since its last call, in order, as one
// burst it takes over (see Endpoint.OnMessages). The pump keeps
// nothing of a burst it has handed on.
func (p *PipeEnd) Receive(fn func(*[]Message)) {
	go func() {
		for {
			p.mu.Lock()
			for p.queue == nil && !p.closed {
				p.cond.Wait()
			}
			burst := p.queue
			p.queue = nil
			p.mu.Unlock()
			if burst == nil {
				return // closed, and everything delivered
			}
			fn(burst)
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
	ta.Receive(epA.OnMessages)
	tb.Receive(epB.OnMessages)
	return epA, epB, nil
}
