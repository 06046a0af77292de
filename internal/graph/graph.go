// Package graph maintains the global view of a distributed Pia
// system: which components live on which subsystem, which logical
// nets connect them, and how those nets must be split when they cross
// subsystem boundaries.
//
// When a set of components moves from one subsystem to another, the
// split in the affected nets is determined by a cut of the component
// graph: a boundary is drawn around the moved components and every
// net crossing the boundary is split. Pia performs each split against
// the global view — never just locally — because repeated local
// splits could force a net to pass through subsystems that contain no
// components relevant to the net. Computing splits from the global
// view, as Partition does, makes that impossible: a net is realized
// only on subsystems that actually host one of its ports.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/vtime"
)

// PortRef names a port on a component, globally.
type PortRef struct {
	Component string
	Port      string
}

func (r PortRef) String() string { return r.Component + "." + r.Port }

// logicalNet is a net in the designer's view, before any splitting.
type logicalNet struct {
	Name  string
	Delay vtime.Duration
	Ports []PortRef
}

// View is the global view of the system: the component graph with
// subsystem assignments.
type View struct {
	comps map[string]string // component -> subsystem
	nets  []logicalNet      // in insertion order, for deterministic output
	refs  []PortRef         // backs every net's Ports, each a capped window
}

// NewView creates an empty global view.
func NewView() *View {
	return &View{comps: make(map[string]string)}
}

// AddComponent registers a component on a subsystem.
func (v *View) AddComponent(comp, subsystem string) error {
	if comp == "" || subsystem == "" {
		return fmt.Errorf("graph: empty component or subsystem name")
	}
	if _, dup := v.comps[comp]; dup {
		return fmt.Errorf("graph: duplicate component %q", comp)
	}
	v.comps[comp] = subsystem
	return nil
}

// AddNet registers a logical net connecting the given ports, copied.
func (v *View) AddNet(name string, delay vtime.Duration, ports ...PortRef) error {
	if v.HasNet(name) {
		return fmt.Errorf("graph: duplicate net %q", name)
	}
	for _, p := range ports {
		if _, ok := v.comps[p.Component]; !ok {
			return fmt.Errorf("graph: net %q references unknown component %q", name, p.Component)
		}
	}
	lo := len(v.refs)
	v.refs = append(v.refs, ports...)
	v.nets = append(v.nets, logicalNet{Name: name, Delay: delay, Ports: v.refs[lo:len(v.refs):len(v.refs)]})
	return nil
}

// HasNet reports whether the view has a net of that name, by a scan.
func (v *View) HasNet(name string) bool {
	return slices.ContainsFunc(v.nets, func(n logicalNet) bool { return n.Name == name })
}

// Subsystem returns the subsystem hosting the component ("" if
// unknown).
func (v *View) Subsystem(comp string) string { return v.comps[comp] }

// Components returns the components assigned to the named subsystem,
// sorted.
func (v *View) Components(subsystem string) []string {
	var out []string
	for c, s := range v.comps {
		if s == subsystem {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Subsystems returns all subsystem names, sorted.
func (v *View) Subsystems() []string {
	seen := make(map[string]bool)
	for _, s := range v.comps {
		seen[s] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Move reassigns a set of components to a new subsystem — drawing a
// boundary around them and re-deriving every split from the global
// view.
func (v *View) Move(subsystem string, comps ...string) error {
	for _, c := range comps {
		if _, ok := v.comps[c]; !ok {
			return fmt.Errorf("graph: move of unknown component %q", c)
		}
	}
	for _, c := range comps {
		v.comps[c] = subsystem
	}
	return nil
}

// Fragment is the portion of a logical net realized on one subsystem.
type Fragment struct {
	Subsystem string
	Ports     []PortRef
}

// Split describes how one logical net is realized: one fragment per
// subsystem hosting at least one of its ports, plus the channel pairs
// that bridge the fragments.
type Split struct {
	Net       string
	Delay     vtime.Duration
	Fragments []Fragment // sorted by subsystem
	// Crossing reports whether the net spans more than one subsystem
	// (needs hidden ports and channel components).
	Crossing bool
}

// Fragment returns the split's fragment on the named subsystem, or nil
// when the subsystem hosts none of the net's ports.
func (sp *Split) Fragment(subsystem string) *Fragment {
	for i := range sp.Fragments {
		if sp.Fragments[i].Subsystem == subsystem {
			return &sp.Fragments[i]
		}
	}
	return nil
}

// ChannelSpec is an unordered subsystem pair that needs a channel
// because at least one net crosses between them. A < B always.
type ChannelSpec struct {
	A, B string
	Nets []string // crossing nets carried by this channel, sorted
}

// Partition computes, from the global view, the realization of every
// net: fragments per subsystem and the set of required channels.
// A net's fragments exist only on subsystems that host one of its
// ports, so no net ever passes through an irrelevant subsystem.
//
// It allocates a few arrays, not per net or port: every fragment's
// Ports is a capped window of one, every split's Fragments of another.
// A fragment's ports are ordered by their String form.
func (v *View) Partition() ([]Split, []ChannelSpec, error) {
	placed := make([]placedRef, len(v.refs))
	ports := make([]PortRef, len(v.refs))
	frags := make([]Fragment, 0, len(v.nets))
	var splits []Split
	if len(v.nets) > 0 {
		splits = make([]Split, 0, len(v.nets))
	}
	specs := []ChannelSpec{}
	lo := 0
	for i := range v.nets {
		n := &v.nets[i]
		// Sorted by subsystem, the net's ports fall into one run a fragment.
		run := placed[lo : lo+len(n.Ports)]
		for j, p := range n.Ports {
			run[j] = placedRef{sub: v.comps[p.Component], ref: p}
		}
		slices.SortFunc(run, func(a, b placedRef) int {
			return cmp.Or(strings.Compare(a.sub, b.sub), compareRefs(a.ref, b.ref))
		})
		f0, start := len(frags), lo
		for j, p := range run {
			k := lo + j
			ports[k] = p.ref
			if j == 0 || p.sub != run[j-1].sub {
				frags = append(frags, Fragment{Subsystem: p.sub})
				start = k
			}
			frags[len(frags)-1].Ports = ports[start : k+1 : k+1]
		}
		lo += len(run)
		sp := Split{Net: n.Name, Delay: n.Delay, Crossing: len(frags)-f0 > 1}
		if len(frags) > f0 {
			sp.Fragments = frags[f0:len(frags):len(frags)]
		}
		splits = append(splits, sp)
		for a := f0; sp.Crossing && a < len(frags); a++ {
			for b := a + 1; b < len(frags); b++ {
				specs = addCrossing(specs, frags[a].Subsystem, frags[b].Subsystem, n.Name)
			}
		}
	}
	for i := range specs {
		slices.Sort(specs[i].Nets)
	}
	return splits, specs, nil
}

// placedRef is a net's port tagged with the subsystem hosting it.
type placedRef struct {
	sub string
	ref PortRef
}

// compareRefs orders two refs as their String forms compare, byte by
// byte, without building them: component "a" sorts after "a-b", as
// '.' > '-'. Equal String forms order by component, so the order is
// total.
func compareRefs(a, b PortRef) int {
	la, lb := len(a.Component)+1+len(a.Port), len(b.Component)+1+len(b.Port)
	for i := range min(la, lb) {
		if x, y := refByte(a, i), refByte(b, i); x != y {
			return cmp.Compare(x, y)
		}
	}
	return cmp.Or(cmp.Compare(la, lb), strings.Compare(a.Component, b.Component))
}

// refByte is byte i of r.String().
func refByte(r PortRef, i int) byte {
	switch {
	case i < len(r.Component):
		return r.Component[i]
	case i == len(r.Component):
		return '.'
	}
	return r.Port[i-len(r.Component)-1]
}

// addCrossing records that net crosses between subsystems a < b,
// keeping specs sorted by (A, B).
func addCrossing(specs []ChannelSpec, a, b, net string) []ChannelSpec {
	k, found := slices.BinarySearchFunc(specs, [2]string{a, b}, func(cs ChannelSpec, key [2]string) int {
		return cmp.Or(strings.Compare(cs.A, key[0]), strings.Compare(cs.B, key[1]))
	})
	if !found {
		specs = slices.Insert(specs, k, ChannelSpec{A: a, B: b})
	}
	specs[k].Nets = append(specs[k].Nets, net)
	return specs
}

// UnknownHostError reports a component assigned to a host (node or
// subsystem placement target) the deployment does not know about. It
// is returned at build time so a bad placement map fails fast, naming
// the offender, instead of panicking at connect time.
type UnknownHostError struct {
	Component string // first affected component (sorted), "" if none
	Host      string // the unknown host / placement target
}

func (e *UnknownHostError) Error() string {
	if e.Component == "" {
		return fmt.Sprintf("graph: placement names unknown host %q", e.Host)
	}
	return fmt.Sprintf("graph: component %q is assigned to unknown host %q", e.Component, e.Host)
}

// HiddenPortName names the hidden port added to a net fragment for
// the channel toward the given peer subsystem.
func HiddenPortName(net, peer string) string { return net + "$" + peer }

// ChannelComponentName names the channel (proxy) component a
// subsystem hosts for its channel to a peer.
func ChannelComponentName(local, peer string) string { return "chan:" + local + ">" + peer }
