package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// partitionReference is Partition as it was before it lost its maps
// and reflection sorts: a map of ports per subsystem for every net, the
// fragment's ports sorted by their String form, and the channel specs
// gathered in a map and sorted at the end. The rewrite must reproduce
// it exactly.
func partitionReference(v *View) ([]Split, []ChannelSpec) {
	var splits []Split
	chans := make(map[[2]string]*ChannelSpec)
	for i := range v.nets {
		n := &v.nets[i]
		bySub := make(map[string][]PortRef)
		for _, p := range n.Ports {
			bySub[v.comps[p.Component]] = append(bySub[v.comps[p.Component]], p)
		}
		subs := make([]string, 0, len(bySub))
		for s := range bySub {
			subs = append(subs, s)
		}
		sort.Strings(subs)
		sp := Split{Net: n.Name, Delay: n.Delay, Crossing: len(subs) > 1}
		for _, s := range subs {
			ports := bySub[s]
			sort.Slice(ports, func(i, j int) bool { return ports[i].String() < ports[j].String() })
			sp.Fragments = append(sp.Fragments, Fragment{Subsystem: s, Ports: ports})
		}
		splits = append(splits, sp)
		if sp.Crossing {
			for i := 0; i < len(subs); i++ {
				for j := i + 1; j < len(subs); j++ {
					key := [2]string{subs[i], subs[j]}
					cs := chans[key]
					if cs == nil {
						cs = &ChannelSpec{A: subs[i], B: subs[j]}
						chans[key] = cs
					}
					cs.Nets = append(cs.Nets, n.Name)
				}
			}
		}
	}
	keys := make([][2]string, 0, len(chans))
	for k := range chans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	specs := make([]ChannelSpec, 0, len(keys))
	for _, k := range keys {
		cs := chans[k]
		sort.Strings(cs.Nets)
		specs = append(specs, *cs)
	}
	return splits, specs
}

// randomView builds a view of 1-4 subsystems whose component names
// share prefixes and contain '.' and '-', so that ordering by parts and
// ordering by String form disagree; port names contain neither, as the
// builder requires. Nets are added in a random order, hold 0-6 ports
// (a port may repeat) and some views are then partly moved.
func randomView(t *testing.T, rng *rand.Rand) *View {
	t.Helper()
	stems := []string{"a", "a-b", "a.b", "ab", "a-", "b", "cpu", "cpu.0", "cpu-0", "cpu0"}
	ports := []string{"in", "out", "bus", "i", "in0", "irq", "x"}
	nsubs := 1 + rng.Intn(4)
	v := NewView()
	var comps []string
	for _, st := range stems {
		if rng.Intn(4) == 0 {
			continue
		}
		comps = append(comps, st)
		if err := v.AddComponent(st, fmt.Sprintf("ss%d", rng.Intn(nsubs))); err != nil {
			t.Fatal(err)
		}
	}
	if len(comps) == 0 {
		comps = append(comps, "solo")
		if err := v.AddComponent("solo", "ss0"); err != nil {
			t.Fatal(err)
		}
	}
	nnets := rng.Intn(12)
	for i, k := range rng.Perm(nnets) {
		refs := make([]PortRef, rng.Intn(7))
		for j := range refs {
			refs[j] = PortRef{Component: comps[rng.Intn(len(comps))], Port: ports[rng.Intn(len(ports))]}
		}
		if err := v.AddNet(fmt.Sprintf("n%02d-%d", k, i), 0, refs...); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		moved := comps[:rng.Intn(len(comps))+1]
		if err := v.Move(fmt.Sprintf("ss%d", rng.Intn(nsubs+1)), moved...); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func cloneNets(v *View) []logicalNet {
	out := slices.Clone(v.nets)
	for i := range out {
		out[i].Ports = slices.Clone(out[i].Ports)
	}
	return out
}

// TestPartitionMatchesReference: on seeded random views, Partition
// returns exactly what the map-and-sort version did, and leaves the
// view's nets as they were.
func TestPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for k := 0; k < 2000; k++ {
		v := randomView(t, rng)
		before := cloneNets(v)
		splits, specs, err := v.Partition()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.nets, before) {
			t.Fatalf("view %d: Partition wrote to the view's nets", k)
		}
		wantSplits, wantSpecs := partitionReference(v)
		if !reflect.DeepEqual(splits, wantSplits) {
			t.Fatalf("view %d: splits\n got %+v\nwant %+v", k, splits, wantSplits)
		}
		if !reflect.DeepEqual(specs, wantSpecs) {
			t.Fatalf("view %d: specs\n got %+v\nwant %+v", k, specs, wantSpecs)
		}
	}
}

// TestCompareRefsIsStringOrder: the byte-wise comparison agrees with
// comparing String forms, including where ordering by parts does not
// ("a" < "a-b" by parts, "a.x" > "a-b.x" by string).
func TestCompareRefsIsStringOrder(t *testing.T) {
	names := []string{"", "a", "a-b", "a.b", "a.", ".a", "ab", "a-", "b", "in", "in0", "i", "."}
	for _, ac := range names {
		for _, ap := range names {
			for _, bc := range names {
				for _, bp := range names {
					a, b := PortRef{ac, ap}, PortRef{bc, bp}
					got := compareRefs(a, b)
					want := 0
					switch {
					case a.String() < b.String():
						want = -1
					case a.String() > b.String():
						want = 1
					}
					if want != 0 && got != want {
						t.Fatalf("compareRefs(%q, %q) = %d, want %d", a, b, got, want)
					}
					if want == 0 && (got == 0) != (a == b) {
						t.Fatalf("compareRefs(%+v, %+v) = %d: equal String forms must tie only on equal refs", a, b, got)
					}
				}
			}
		}
	}
}

// TestFragmentsDoNotShareAppends: a fragment's Ports is capped, so
// appending to it copies rather than writing into the next fragment's
// ports.
func TestFragmentsDoNotShareAppends(t *testing.T) {
	v := buildView(t)
	splits, _, err := v.Partition()
	if err != nil {
		t.Fatal(err)
	}
	var all []Fragment
	for _, sp := range splits {
		all = append(all, sp.Fragments...)
	}
	want := make([][]PortRef, len(all))
	for i, f := range all {
		want[i] = slices.Clone(f.Ports)
	}
	for i := range all {
		_ = append(all[i].Ports, PortRef{"intruder", "x"})
		for j, f := range all {
			if !slices.Equal(f.Ports, want[j]) {
				t.Fatalf("appending to fragment %d changed fragment %d: %v", i, j, f.Ports)
			}
		}
	}
	for _, sp := range splits {
		_ = append(sp.Fragments, Fragment{Subsystem: "intruder"})
	}
	again, _, _ := v.Partition()
	if !reflect.DeepEqual(splits, again) {
		t.Fatal("appending to a split's Fragments changed another split")
	}
}

// TestPartitionAllocs: partitioning a 33-net, 80-port view — the shape
// of a 16-lane fan — costs at most one allocation per fragment plus a
// constant: it does not allocate per port, per net or per sort.
func TestPartitionAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates differently")
	}
	v := NewView()
	for _, c := range []string{"source", "sink"} {
		if err := v.AddComponent(c, "probe"); err != nil {
			t.Fatal(err)
		}
	}
	var probes []PortRef
	for i := 0; i < 16; i++ {
		svc, lane := fmt.Sprintf("svc%d", i), fmt.Sprintf("lane%d", i)
		if err := v.AddComponent(svc, "probe"); err != nil {
			t.Fatal(err)
		}
		if err := v.AddNet("jobs"+lane, 1, PortRef{"source", lane}, PortRef{svc, "in"}); err != nil {
			t.Fatal(err)
		}
		if err := v.AddNet("result"+lane, 1, PortRef{svc, "out"}, PortRef{"sink", lane}); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, PortRef{svc, "probe"})
	}
	if err := v.AddNet("probe", 2, probes...); err != nil {
		t.Fatal(err)
	}
	splits, _, err := v.Partition()
	if err != nil {
		t.Fatal(err)
	}
	frags, ports := 0, 0
	for _, sp := range splits {
		frags += len(sp.Fragments)
		for _, f := range sp.Fragments {
			ports += len(f.Ports)
		}
	}
	if len(splits) != 33 || ports != 80 {
		t.Fatalf("view has %d nets and %d ports, want 33 and 80", len(splits), ports)
	}
	const constant = 8
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := v.Partition(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(frags+constant) {
		t.Fatalf("Partition makes %.0f allocations for %d fragments, want at most %d", allocs, frags, frags+constant)
	}
	t.Logf("Partition: %.0f allocations for %d nets, %d fragments, %d ports", allocs, len(splits), frags, ports)
}
