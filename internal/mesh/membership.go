// Membership: the per-member table of peers and their control
// connections.
package mesh

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/wire"
)

// peerConn is one admitted control connection: a connection of the
// member's node. wire.Conn serialises its writes and bounds its frames;
// reads happen on a single reader goroutine.
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
	conn  *peerConn
	left  bool
	sent  int64 // the count of its last opSent note,
	noted bool  // not taken yet
}

// membership tracks every peer whose control connection is up or was.
type membership struct {
	mu      sync.Mutex
	self    string
	peers   map[string]*peerState
	shut    bool          // the member closed: nothing more is admitted
	changed chan struct{} // closed and replaced whenever a peer joins, leaves or sends a note
}

func newMembership(self string) *membership {
	return &membership{
		self:    self,
		peers:   make(map[string]*peerState),
		changed: make(chan struct{}),
	}
}

// watch returns a channel the next join, leave or opSent note closes.
// Take it before reading the state being waited on, so a change landing
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

// join makes pc its peer's control connection, unless the member has
// closed or the peer already has a live one; then pc is closed and the
// reason returned.
func (ms *membership) join(pc *peerConn) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var err error
	switch ps := ms.peers[pc.name]; {
	case ms.shut:
		err = fmt.Errorf("mesh: %s closed", ms.self)
	case ps != nil && !ps.left:
		err = fmt.Errorf("mesh: %s already has a control connection from %s", ms.self, pc.name)
	}
	if err != nil {
		pc.Close()
		return err
	}
	ms.peers[pc.name] = &peerState{conn: pc}
	ms.signal()
	return nil
}

// close admits nothing more and closes every control connection.
func (ms *membership) close() {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.shut = true
	for _, ps := range ms.peers {
		ps.conn.Close()
	}
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

// noteSent keeps the count of a peer's opSent note for takeSent and
// wakes the watchers.
func (ms *membership) noteSent(name string, n int64) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ps := ms.peers[name]; ps != nil {
		ps.sent, ps.noted = n, true
		ms.signal()
	}
}

// takeSent takes the count of the peer's last opSent note, if one came
// since the last take.
func (ms *membership) takeSent(name string) (int64, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ps := ms.peers[name]
	if ps == nil || !ps.noted {
		return 0, false
	}
	ps.noted = false
	return ps.sent, true
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

// joined reports how many peers have completed the handshake.
func (ms *membership) joined() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.peers)
}

// peerHealth is one row of a member's health report.
type peerHealth struct {
	Name   string `json:"name"`
	Self   bool   `json:"self"`
	Joined bool   `json:"joined"`
	Left   bool   `json:"left"`
	Alive  bool   `json:"alive"`
}

// Health is a member's view of the mesh: per-peer membership, plus the
// quorum verdict. A peer is alive while its control connection is: on
// a plain node that connection dies after three silent heartbeat
// intervals, on a resilient one when its session is lost. QuorumDead
// (alive*2 <= total) is the only condition that makes /healthz report
// 503: a member that merely lost one peer of a large mesh is degraded,
// not dead.
type Health struct {
	Members    []peerHealth `json:"members"`
	Alive      int          `json:"alive"`
	Total      int          `json:"total"`
	QuorumDead bool         `json:"quorumDead"`
}

// health assembles the report.
func (ms *membership) health() Health {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	h := Health{Members: []peerHealth{{Name: ms.self, Self: true, Joined: true, Alive: true}}}
	for n, ps := range ms.peers {
		h.Members = append(h.Members, peerHealth{Name: n, Joined: true, Left: ps.left, Alive: !ps.left})
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
