package graph

import (
	"strings"
	"testing"
)

func buildView(t *testing.T) *View {
	t.Helper()
	v := NewView()
	for comp, sub := range map[string]string{
		"cpu": "ss1", "mem": "ss1", "asic": "ss2", "ui": "ss1",
	} {
		if err := v.AddComponent(comp, sub); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.AddNet("bus", 1, PortRef{"cpu", "bus"}, PortRef{"mem", "bus"}, PortRef{"asic", "bus"}); err != nil {
		t.Fatal(err)
	}
	if err := v.AddNet("lcd", 0, PortRef{"cpu", "lcd"}, PortRef{"ui", "in"}); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPartitionSplitsCrossingNet(t *testing.T) {
	v := buildView(t)
	splits, chans, err := v.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("splits = %d, want 2", len(splits))
	}
	bus := splits[0]
	if bus.Net != "bus" || !bus.Crossing {
		t.Fatalf("bus split = %+v", bus)
	}
	if len(bus.Fragments) != 2 {
		t.Fatalf("bus fragments = %d, want 2", len(bus.Fragments))
	}
	if bus.Fragments[0].Subsystem != "ss1" || len(bus.Fragments[0].Ports) != 2 {
		t.Fatalf("ss1 fragment = %+v", bus.Fragments[0])
	}
	if bus.Fragments[1].Subsystem != "ss2" || len(bus.Fragments[1].Ports) != 1 {
		t.Fatalf("ss2 fragment = %+v", bus.Fragments[1])
	}
	lcd := splits[1]
	if lcd.Crossing || len(lcd.Fragments) != 1 {
		t.Fatalf("lcd split = %+v", lcd)
	}
	if len(chans) != 1 || chans[0].A != "ss1" || chans[0].B != "ss2" {
		t.Fatalf("channels = %+v", chans)
	}
	if len(chans[0].Nets) != 1 || chans[0].Nets[0] != "bus" {
		t.Fatalf("channel nets = %v", chans[0].Nets)
	}
}

func TestMoveRederivesSplits(t *testing.T) {
	v := buildView(t)
	// Move the UI to a third subsystem: the lcd net must now split
	// between ss1 and ss3, and the bus net must be untouched by it.
	if err := v.Move("ss3", "ui"); err != nil {
		t.Fatal(err)
	}
	splits, chans, err := v.Partition()
	if err != nil {
		t.Fatal(err)
	}
	var lcd *Split
	for i := range splits {
		if splits[i].Net == "lcd" {
			lcd = &splits[i]
		}
	}
	if lcd == nil || !lcd.Crossing {
		t.Fatalf("lcd not split after move: %+v", splits)
	}
	// No fragment of lcd on ss2 — the net never passes through an
	// irrelevant subsystem.
	for _, f := range lcd.Fragments {
		if f.Subsystem == "ss2" {
			t.Fatal("lcd net routed through irrelevant subsystem ss2")
		}
	}
	if len(chans) != 2 {
		t.Fatalf("channels after move = %+v", chans)
	}
}

func TestMoveUnknownComponent(t *testing.T) {
	v := buildView(t)
	if err := v.Move("ss9", "ghost"); err == nil {
		t.Fatal("move of unknown component accepted")
	}
}

func TestViewAccessors(t *testing.T) {
	v := buildView(t)
	if v.Subsystem("cpu") != "ss1" || v.Subsystem("ghost") != "" {
		t.Fatal("Subsystem accessor wrong")
	}
	subs := v.Subsystems()
	if len(subs) != 2 || subs[0] != "ss1" || subs[1] != "ss2" {
		t.Fatalf("Subsystems = %v", subs)
	}
	comps := v.Components("ss1")
	if len(comps) != 3 {
		t.Fatalf("ss1 components = %v", comps)
	}
}

func TestViewErrors(t *testing.T) {
	v := NewView()
	if err := v.AddComponent("", "s"); err == nil {
		t.Fatal("empty name accepted")
	}
	v.AddComponent("a", "s")
	if err := v.AddComponent("a", "s"); err == nil {
		t.Fatal("duplicate component accepted")
	}
	if err := v.AddNet("n", 0, PortRef{"ghost", "p"}); err == nil {
		t.Fatal("net on unknown component accepted")
	}
	v.AddNet("n", 0, PortRef{"a", "p"})
	if err := v.AddNet("n", 0); err == nil {
		t.Fatal("duplicate net accepted")
	}
}

func TestNames(t *testing.T) {
	if HiddenPortName("bus", "ss2") != "bus$ss2" {
		t.Fatal("HiddenPortName format changed")
	}
	if !strings.Contains(ChannelComponentName("ss1", "ss2"), "ss1") {
		t.Fatal("ChannelComponentName missing local name")
	}
}

func TestTopologySimpleCyclesAllowed(t *testing.T) {
	tp := NewTopology()
	// Fig 4's three subsystems: SS1 <-> SS2, SS1 <-> SS3 — all
	// bidirectional edges, no long cycle.
	tp.AddEdge("ss1", "ss2")
	tp.AddEdge("ss2", "ss1")
	tp.AddEdge("ss1", "ss3")
	tp.AddEdge("ss3", "ss1")
	if err := tp.Validate(); err != nil {
		t.Fatalf("bidirectional edges rejected: %v", err)
	}
}

func TestTopologyLongCycleRejected(t *testing.T) {
	tp := NewTopology()
	tp.AddEdge("a", "b")
	tp.AddEdge("b", "c")
	tp.AddEdge("c", "a")
	err := tp.Validate()
	if err == nil {
		t.Fatal("3-cycle accepted")
	}
	if !strings.Contains(err.Error(), "length 3") {
		t.Fatalf("error does not name the cycle: %v", err)
	}
}

func TestTopologyDAGAllowed(t *testing.T) {
	tp := NewTopology()
	tp.AddEdge("a", "b")
	tp.AddEdge("b", "c")
	tp.AddEdge("a", "c")
	if err := tp.Validate(); err != nil {
		t.Fatalf("DAG rejected: %v", err)
	}
}

func TestTopologyMixed(t *testing.T) {
	// A bidirectional pair feeding a chain is fine; adding a back
	// edge that closes a long cycle is not.
	tp := NewTopology()
	tp.AddEdge("a", "b")
	tp.AddEdge("b", "a")
	tp.AddEdge("b", "c")
	tp.AddEdge("c", "d")
	if err := tp.Validate(); err != nil {
		t.Fatalf("mixed topology rejected: %v", err)
	}
	tp.AddEdge("d", "a")
	if err := tp.Validate(); err == nil {
		t.Fatal("long cycle through bidirectional pair accepted")
	}
}

func TestTopologyNodes(t *testing.T) {
	tp := NewTopology()
	tp.addNode("z")
	tp.addNode("a")
	tp.AddEdge("a", "m")
	nodes := tp.Nodes()
	if len(nodes) != 3 || nodes[0] != "a" || nodes[2] != "z" {
		t.Fatalf("Nodes = %v", nodes)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}
