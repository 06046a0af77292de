package core

// SharedPool is the kernel's one worker pool: a bounded set of workers
// that serves the parallel rounds of any number of subsystems. A
// subsystem either owns one — SetWorkers(n) with no pool attached
// makes Run start a one-tenant pool of n and close it on return — or
// is attached to one the host owns (SetPool). A multi-tenant host that
// let every session own its pool would run tenants × workers
// goroutines and let any one tenant saturate the machine; an attached
// SharedPool caps the host at one fixed worker count and fair-shares
// it.
//
// Fairness is round-robin over subsystems, not over jobs: each
// subsystem owns a FIFO queue of its current round's members, and
// idle workers scan the queues starting one past the queue that
// supplied the previous job. A tenant dispatching 1000-member rounds
// therefore cannot starve a tenant dispatching 2-member rounds — every
// queue is offered a worker once per scan cycle.
//
// Sharing cannot perturb results: a round's side effects are buffered
// per member and merged on the owning subsystem's scheduler goroutine
// in canonical (time, component-index) order, so which worker ran a
// member — or which other subsystem's jobs interleaved with it — is
// invisible in virtual time, drive order, and digests.

import "sync"

// poolQueue holds one subsystem's outstanding round jobs. head/jobs
// form a FIFO that is reset (not reallocated) each round.
type poolQueue struct {
	jobs []*Component
	head int
}

func (q *poolQueue) pending() bool { return q.head < len(q.jobs) }

// SharedPool fair-shares a fixed set of workers across the parallel
// rounds of any number of subsystems. Create with NewSharedPool,
// attach subsystems with (*Subsystem).SetPool, detach with Forget,
// and join the workers with Close.
type SharedPool struct {
	size int

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[*Subsystem]*poolQueue
	ring   []*poolQueue // round-robin scan order
	rr     int          // next queue offered a worker
	closed bool
	wg     sync.WaitGroup
}

// NewSharedPool starts a pool of n workers (minimum 1).
func NewSharedPool(n int) *SharedPool {
	if n < 1 {
		n = 1
	}
	p := &SharedPool{size: n, queues: make(map[*Subsystem]*poolQueue)}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Size returns the worker count.
func (p *SharedPool) Size() int { return p.size }

// submit enqueues one subsystem round. Called on the owning
// subsystem's scheduler goroutine, which then blocks on its roundWG —
// so at most one round per subsystem is ever queued, and the queue is
// always drained when submit finds it again. The members are copied:
// the caller's slice is scratch the next round reuses.
func (p *SharedPool) submit(s *Subsystem, members []*Component) {
	p.mu.Lock()
	q := p.queues[s]
	if q == nil {
		q = &poolQueue{}
		p.queues[s] = q
		p.ring = append(p.ring, q)
	}
	q.jobs = append(q.jobs[:0], members...)
	q.head = 0
	p.cond.Broadcast()
	p.mu.Unlock()
}

// take pops the next job round-robin across subsystems, blocking
// until one is available or the pool closes.
func (p *SharedPool) take() (*Component, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, false
		}
		if n := len(p.ring); n > 0 {
			for i := 0; i < n; i++ {
				q := p.ring[(p.rr+i)%n]
				if !q.pending() {
					continue
				}
				c := q.jobs[q.head]
				q.jobs[q.head] = nil
				q.head++
				p.rr = (p.rr + i + 1) % n
				return c, true
			}
		}
		p.cond.Wait()
	}
}

func (p *SharedPool) worker() {
	defer p.wg.Done()
	for {
		c, ok := p.take()
		if !ok {
			return
		}
		// planKey is the key the round's scan cached for c.
		c.sub.stepTimed(c, c.planKey)
		c.sub.roundWG.Done()
	}
}

// Forget detaches a subsystem, dropping its queue slot. Call only
// with the subsystem between runs (no round in flight): rounds are
// synchronous, so a subsystem that is not inside Run has an empty,
// fully drained queue.
func (p *SharedPool) Forget(s *Subsystem) {
	p.mu.Lock()
	q := p.queues[s]
	delete(p.queues, s)
	if q != nil {
		for i, rq := range p.ring {
			if rq != q {
				continue
			}
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			if p.rr > i {
				p.rr--
			}
			break
		}
		if len(p.ring) > 0 {
			p.rr %= len(p.ring)
		} else {
			p.rr = 0
		}
	}
	p.mu.Unlock()
}

// Close wakes and joins the workers. Call only when no attached
// subsystem is inside Run.
func (p *SharedPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
