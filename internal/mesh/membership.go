// Membership: the per-member table of peers, their control
// connections, data-plane addresses, and heartbeat freshness.
package mesh

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// peerConn is one admitted control connection. wire.Conn serialises its
// writes and bounds its frames; reads happen on a single reader
// goroutine.
type peerConn struct {
	name string
	*wire.Conn
}

// send writes one control frame.
func (pc *peerConn) send(f any) error {
	return pc.SendRaw(wire.FrameMesh, appendFrame(nil, f))
}

// recv reads one control frame. Bytes that do not decode are a
// protocol error that ends the connection.
func (pc *peerConn) recv() (any, error) {
	kind, payload, err := pc.RecvFrame()
	if err != nil {
		return nil, err
	}
	return decodeFrame(kind, payload)
}

// peerState is everything the membership table knows about one peer.
type peerState struct {
	conn     *peerConn
	dataAddr string
	lastHB   time.Time
	left     bool
}

// membership tracks every peer that has completed the handshake, and
// every connection whose handshake is still under way.
type membership struct {
	mu       sync.Mutex
	self     string
	peers    map[string]*peerState
	greeting map[net.Conn]bool // connections in their handshake
	shut     bool              // the member closed: nothing more is admitted
	changed  chan struct{}     // closed and replaced whenever a peer joins or leaves
}

func newMembership(self string) *membership {
	return &membership{
		self:     self,
		peers:    make(map[string]*peerState),
		greeting: make(map[net.Conn]bool),
		changed:  make(chan struct{}),
	}
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

// greet registers a connection whose handshake is starting, so close
// can cut it; it reports false, having closed c, once the member is
// closed.
func (ms *membership) greet(c net.Conn) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.shut {
		c.Close()
		return false
	}
	ms.greeting[c] = true
	return true
}

// join ends c's handshake, whose outcome err is: pc, the connection
// over c, becomes the peer's control connection unless the handshake
// failed or the member closed during it, which close c and return why.
func (ms *membership) join(c net.Conn, pc *peerConn, dataAddr string, err error) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	delete(ms.greeting, c)
	if err == nil && ms.shut {
		err = fmt.Errorf("mesh: %s closed during the handshake", ms.self)
	}
	if err != nil {
		c.Close()
		return err
	}
	ms.peers[pc.name] = &peerState{conn: pc, dataAddr: dataAddr, lastHB: time.Now()}
	ms.signal()
	return nil
}

// close admits nothing more and closes every control connection,
// established or in its handshake.
func (ms *membership) close() {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.shut = true
	for c := range ms.greeting {
		c.Close()
	}
	for _, ps := range ms.peers {
		ps.conn.Close()
	}
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

// peerHealth is one row of a member's health report.
type peerHealth struct {
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
	Members    []peerHealth `json:"members"`
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
	h := Health{Members: []peerHealth{{Name: ms.self, Self: true, Joined: true, Alive: true}}}
	for n, ps := range ms.peers {
		age := now.Sub(ps.lastHB)
		h.Members = append(h.Members, peerHealth{
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
