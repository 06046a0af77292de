package pia

import "fmt"

// The examples drive the paper's mechanisms through this package's
// API, one section each: §2.1 interfaces, §2.1.1 synchronous memory,
// §2.1.2 checkpoint requests, §2.1.3 the detail slider, §2.2.4 the
// coordinated restore, §2.3 the hardware stub, and the debugger the
// paper names as its current work.

// pingPong builds src (n values on "out", one every 10 ns) and dst
// (collecting them on "in") in the one subsystem "main".
func pingPong(n int) (*Simulation, *pongState) {
	dst := &pongState{}
	sim, err := NewSystem("example").
		AddComponent("src", "main", &pingState{N: n}, "out").
		AddComponent("dst", "main", dst, "in").
		AddNet("wire", 1, "src.out", "dst.in").
		BuildLocal()
	if err != nil {
		panic(err)
	}
	return sim, dst
}

// An interface (§2.1) groups a component's ports under one name,
// creating the ports it names that the component lacks.
func ExampleSimulation_Component() {
	sim, _ := pingPong(1)
	ifc, err := sim.Component("src").AddInterface("bus", "out", "strobe")
	fmt.Println(ifc.Name, ifc.Ports, err)
	fmt.Println(sim.Component("src").Port("strobe") != nil)
	// Output:
	// bus [out strobe] <nil>
	// true
}

// An address marked synchronous (§2.1.1) is one an interrupt handler
// touches: every access to it waits until subsystem time has caught up
// with the component, as Sync does explicitly.
func ExampleProc_Memory() {
	sim, err := NewSystem("memsync").
		AddComponent("cpu", "main", BehaviorFunc(func(p *Proc) error {
			mem := p.Memory()
			mem.MarkSynchronous(0x700)
			p.Delay(50)
			mem.Write(p, 0x700, 7)
			p.Sync()
			fmt.Println(mem.Synchronous(0x700), mem.Synchronous(0x704), mem.Read(p, 0x700), p.Time())
			return nil
		})).
		BuildLocal()
	if err != nil {
		panic(err)
	}
	if err := sim.Run(Infinity); err != nil {
		panic(err)
	}
	// Output:
	// true false 7 50ns
}

// A checkpoint request (§2.1.2) is honoured at the scheduler's next
// safe point, where every component's state is saved.
func ExampleSubsystem_RequestCheckpoint() {
	sim, dst := pingPong(3)
	main := sim.Subsystem("main")
	main.RequestCheckpoint("")
	if err := sim.Run(Infinity); err != nil {
		panic(err)
	}
	cs := main.LatestCheckpoint()
	fmt.Println(cs.Time, cs.Components(), dst.Got)
	// Output:
	// 0ns 2 [0 1 2]
}

// The slider (§2.1.3) sets every component of a subsystem to one
// runlevel; each sees it at its next safe point.
func ExampleEngine_Slider() {
	var levels []string
	sim, err := NewSystem("slider").
		AddComponent("cpu", "main", BehaviorFunc(func(p *Proc) error {
			for i := 0; i < 2; i++ {
				p.Delay(10)
				levels = append(levels, p.Runlevel())
			}
			return nil
		})).
		SetRunlevel("cpu", "wordLevel").
		BuildLocal()
	if err != nil {
		panic(err)
	}
	if err := sim.Run(15); err != nil {
		panic(err)
	}
	sim.Engines["main"].Slider("packetLevel")
	if err := sim.Run(Infinity); err != nil {
		panic(err)
	}
	fmt.Println(levels)
	// Output:
	// [wordLevel packetLevel]
}

// A coordinated restore (§2.2.4) rewinds every subsystem to its share
// of a completed distributed snapshot and replays the messages the
// snapshot caught in flight.
func ExampleAgent_RestoreTag() {
	sim, dst := pingPong(4)
	agent := sim.Agents["main"]
	tag := agent.Initiate()
	if err := sim.Run(Infinity); err != nil {
		panic(err)
	}
	fmt.Println(dst.Got, agent.Completed(tag) != nil)
	agent.RestoreTag(tag)
	if err := sim.Run(Infinity); err != nil {
		panic(err)
	}
	fmt.Println(dst.Got, sim.Subsystem("main").Stats().Restores)
	// Output:
	// [0 1 2 3] true
	// [0 1 2 3] 1
}

// The hardware stub (§2.3) sets and reads the board's time, stalls its
// clock, and buffers the interrupts it raises until the simulator
// collects them.
func ExampleSimBoard_Stalled() {
	board := NewSimBoard(func(regs map[uint32]uint32, from, to Time) []HWInterrupt {
		return []HWInterrupt{{Line: 1, At: to}}
	})
	board.Buffer(HWInterrupt{Line: 7, At: 0})
	board.Stall()
	fmt.Println(board.Stalled())
	irqs, _ := board.RunFor(100)
	now, _ := board.ReadTime()
	fmt.Println(board.Stalled(), now, irqs)
	// Output:
	// true
	// false 100ns [{7 0ns 0} {1 100ns 0}]
}

// The debugger pauses a run on a condition over component local times
// (the switchpoint language) or on a net drive, and inspects nets.
func ExampleDebugger() {
	sim, _ := pingPong(5)
	dbg := NewDebugger(sim.Subsystem("main"))
	bp, _ := dbg.AddBreak("src >= 30")
	hit, _ := dbg.Continue(Infinity)
	v, at, _ := dbg.NetValue("wire")
	fmt.Println(hit.Break == bp, hit.Time, v, at)
	// The hit disarmed the breakpoint. Rearmed, it would stop the next
	// Continue at once; removed, it lets the run reach the watchpoint.
	fmt.Println(dbg.Rearm(bp.ID), dbg.Remove(bp.ID), dbg.Remove(bp.ID))
	wp, _ := dbg.AddWatch("wire", func(v any) bool { return v == 4 })
	hit, _ = dbg.Continue(Infinity)
	fmt.Println(hit.Break == nil, hit.Watch == wp, hit.Value, hit.Time)
	// Output:
	// true 20ns 1 20ns
	// true true false
	// true true 4 50ns
}
