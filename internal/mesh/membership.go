// Membership: the per-member table of peers, their control
// connections, data-plane addresses, and heartbeat freshness.
package mesh

import (
	"encoding/gob"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// frameKind tags each value on a control connection after the
// handshake: one gob-encoded kind, then the gob of the struct it names.
type frameKind uint8

const (
	frameRequest frameKind = iota + 1
	frameReply
)

// peerConn is one control connection with gob framing. Writes are
// serialized; reads happen on a single reader goroutine.
type peerConn struct {
	name string
	c    net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	wmu  sync.Mutex
}

// send writes one frame, a request or a reply.
func (pc *peerConn) send(f any) error {
	kind := frameReply
	if _, ok := f.(request); ok {
		kind = frameRequest
	}
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	if err := pc.enc.Encode(kind); err != nil {
		return err
	}
	return pc.enc.Encode(f)
}

// recv reads one frame. A kind this build does not know is a protocol
// error that ends the connection, like any other undecodable byte.
func (pc *peerConn) recv() (any, error) {
	var kind frameKind
	if err := pc.dec.Decode(&kind); err != nil {
		return nil, err
	}
	switch kind {
	case frameRequest:
		var rq request
		err := pc.dec.Decode(&rq)
		return rq, err
	case frameReply:
		var rp reply
		err := pc.dec.Decode(&rp)
		return rp, err
	}
	return nil, fmt.Errorf("mesh: unknown control frame kind %d from %s", kind, pc.name)
}

// peerState is everything the membership table knows about one peer.
type peerState struct {
	conn     *peerConn
	dataAddr string
	lastHB   time.Time
	left     bool
}

// membership tracks every peer that has completed the handshake.
type membership struct {
	mu      sync.Mutex
	self    string
	peers   map[string]*peerState
	changed chan struct{} // closed and replaced whenever a peer joins or leaves
}

func newMembership(self string) *membership {
	return &membership{self: self, peers: make(map[string]*peerState), changed: make(chan struct{})}
}

// watch returns a channel the next join or leave closes. Take it
// before reading the state being waited on, so a change landing
// between the read and the wait is not slept through.
func (ms *membership) watch() <-chan struct{} {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.changed
}

// signal wakes every watcher; caller holds ms.mu.
func (ms *membership) signal() {
	close(ms.changed)
	ms.changed = make(chan struct{})
}

// join registers a peer's established control connection.
func (ms *membership) join(pc *peerConn, dataAddr string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.peers[pc.name] = &peerState{conn: pc, dataAddr: dataAddr, lastHB: time.Now()}
	ms.signal()
}

// note refreshes a peer's heartbeat; any control traffic counts.
func (ms *membership) note(name string) {
	ms.mu.Lock()
	if ps := ms.peers[name]; ps != nil {
		ps.lastHB = time.Now()
	}
	ms.mu.Unlock()
}

// markLeft records a graceful leave (or a dead connection).
func (ms *membership) markLeft(name string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ps := ms.peers[name]; ps != nil && !ps.left {
		ps.left = true
		ms.signal()
	}
}

// conn returns the control connection toward a peer that is still a
// member.
func (ms *membership) conn(name string) (*peerConn, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ps := ms.peers[name]
	if ps == nil {
		return nil, fmt.Errorf("mesh: %s: no control connection to %s", ms.self, name)
	}
	if ps.left {
		return nil, fmt.Errorf("mesh: %s: member %s has left", ms.self, name)
	}
	return ps.conn, nil
}

// conns returns the control connection of every peer, left or not.
func (ms *membership) conns() []*peerConn {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]*peerConn, 0, len(ms.peers))
	for _, ps := range ms.peers {
		out = append(out, ps.conn)
	}
	return out
}

// dataAddr returns the peer's data-plane listen address.
func (ms *membership) dataAddr(name string) string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ps := ms.peers[name]; ps != nil {
		return ps.dataAddr
	}
	return ""
}

// joined reports how many peers have completed the handshake.
func (ms *membership) joined() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.peers)
}

// PeerHealth is one row of a member's health report.
type PeerHealth struct {
	Name          string        `json:"name"`
	Self          bool          `json:"self"`
	Joined        bool          `json:"joined"`
	Left          bool          `json:"left"`
	LastHeartbeat time.Time     `json:"lastHeartbeat,omitzero"`
	Age           time.Duration `json:"heartbeatAgeNs"`
	Alive         bool          `json:"alive"`
}

// Health is a member's view of the mesh: per-peer membership and
// heartbeat age, plus the quorum verdict. QuorumDead (alive*2 <=
// total) is the only condition that makes /healthz report 503: a
// member that merely lost one peer of a large mesh is degraded, not
// dead.
type Health struct {
	Members    []PeerHealth `json:"members"`
	Alive      int          `json:"alive"`
	Total      int          `json:"total"`
	QuorumDead bool         `json:"quorumDead"`
}

// health assembles the report. A peer is alive when it has joined,
// has not left, and its last heartbeat is fresher than three
// intervals.
func (ms *membership) health() Health {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	now := time.Now()
	h := Health{Members: []PeerHealth{{Name: ms.self, Self: true, Joined: true, Alive: true}}}
	for n, ps := range ms.peers {
		age := now.Sub(ps.lastHB)
		h.Members = append(h.Members, PeerHealth{
			Name: n, Joined: true, Left: ps.left,
			LastHeartbeat: ps.lastHB, Age: age, Alive: !ps.left && age < 3*heartbeatEvery,
		})
	}
	sort.Slice(h.Members, func(i, j int) bool { return h.Members[i].Name < h.Members[j].Name })
	for _, ph := range h.Members {
		h.Total++
		if ph.Alive {
			h.Alive++
		}
	}
	h.QuorumDead = h.Alive*2 <= h.Total
	return h
}
