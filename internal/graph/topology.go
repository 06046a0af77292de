package graph

import (
	"fmt"
	"sort"
)

// topology is the directed graph of conservative time restrictions
// between subsystems: an edge A->B means B restricts A (A must obtain
// safe times from B before advancing). Pia requires this graph to
// have only simple cycles — a simple cycle being a bidirectional edge
// — because eliminating self-restriction on the fly for general
// graphs is computationally hard.
type topology struct {
	edges map[string]map[string]bool
	nodes map[string]bool
}

// NewTopology creates an empty restriction graph.
func NewTopology() *topology {
	return &topology{edges: make(map[string]map[string]bool), nodes: make(map[string]bool)}
}

// addNode registers a subsystem.
func (t *topology) addNode(name string) {
	t.nodes[name] = true
	if t.edges[name] == nil {
		t.edges[name] = make(map[string]bool)
	}
}

// AddEdge records that `to` restricts `from` (a conservative channel
// from `from`'s point of view).
func (t *topology) AddEdge(from, to string) {
	t.addNode(from)
	t.addNode(to)
	t.edges[from][to] = true
}

// Nodes returns the subsystems, sorted.
func (t *topology) Nodes() []string {
	out := make([]string, 0, len(t.nodes))
	for n := range t.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate checks the only-simple-cycles rule: no directed cycle of
// length three or more may exist. Bidirectional edges (2-cycles) are
// the allowed "simple cycles". A long cycle exists exactly when some
// arc u->v can be closed by a return path v->...->u of length >= 2 —
// that is, when u is reachable from v without using the direct
// reverse arc v->u. Validate names the offending cycle.
func (t *topology) Validate() error {
	for _, u := range t.Nodes() {
		succs := make([]string, 0, len(t.edges[u]))
		for w := range t.edges[u] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, v := range succs {
			if u == v {
				continue
			}
			if path := t.pathAvoidingArc(v, u); path != nil && len(path) >= 3 {
				cycle := append([]string{u}, path...)
				return fmt.Errorf("graph: restriction cycle of length %d through %v; only simple (bidirectional) cycles are allowed", len(cycle)-1, cycle[:len(cycle)-1])
			}
		}
	}
	return nil
}

// pathAvoidingArc BFSes from src to dst while forbidding the single
// direct arc src->dst; it returns the node path src..dst (inclusive)
// or nil. Any path found has length >= 2 arcs because the 1-arc path
// is exactly the forbidden one.
func (t *topology) pathAvoidingArc(src, dst string) []string {
	parent := map[string]string{src: ""}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		succs := make([]string, 0, len(t.edges[cur]))
		for w := range t.edges[cur] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if cur == src && w == dst {
				continue // the forbidden direct arc
			}
			if _, seen := parent[w]; seen {
				continue
			}
			parent[w] = cur
			if w == dst {
				var path []string
				for n := dst; n != ""; n = parent[n] {
					path = append([]string{n}, path...)
				}
				return path
			}
			queue = append(queue, w)
		}
	}
	return nil
}
