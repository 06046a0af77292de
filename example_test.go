package pia

import (
	"bytes"
	"fmt"
)

// The examples drive the paper's mechanisms through this package's
// API, one section each: §2.1 interfaces, §2.1.1 synchronous memory,
// §2.1.2 checkpoint requests, §2.1.3 the detail slider and the
// word/packet protocol, §2.2.2–2.2.3 a channel per subsystem pair,
// §2.2.4 the coordinated restore, §2.3 the hardware stub, the
// basic-block timing estimator (DESIGN.md §2), and the debugger the
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

// arrivals records when each value reaches "in".
type arrivals struct {
	At []Time
}

func (s *arrivals) Run(p *Proc) error {
	for {
		if _, ok := p.Recv("in"); !ok {
			return nil
		}
		s.At = append(s.At, p.Time())
	}
}

func (s *arrivals) SaveState() ([]byte, error) { return appendList(nil, s.At), nil }

func (s *arrivals) RestoreState(b []byte) error {
	f := ReadFields(b)
	s.At = readList[Time](&f)
	return f.Done()
}

// Component finds a component in whichever subsystem holds it; the
// unit of §2.1 is the component, and its ports are looked up by name.
func ExampleSimulation_Component() {
	sim, _ := pingPong(1)
	src := sim.Component("src")
	fmt.Println(src.Name(), src.Port("out") != nil, src.Port("strobe") != nil)
	// Output:
	// src true false
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

// The protocol library (§2.1.3) sends one message at word level (a
// length header, then 4-byte words) or at packet level (1 KB frames);
// the receiver's assembler rebuilds it whole at either level.
func ExampleSendMessage() {
	payload := bytes.Repeat([]byte("pia!"), 625) // 2500 bytes
	levels := []string{LevelWord, LevelPacket}
	drives := make([]int, len(levels))
	got := make([]string, len(levels))
	sim, err := NewSystem("proto").
		AddComponent("modem", "main", BehaviorFunc(func(p *Proc) error {
			for i, level := range levels {
				drives[i] = SendMessage(p, "out", payload, level, DefaultProtoConfig)
			}
			return nil
		}), "out").
		AddComponent("handheld", "main", BehaviorFunc(func(p *Proc) error {
			a := NewAssembler()
			for i := range levels {
				msg, ok, err := ReceiveMessage(p, "in", a)
				if !ok || err != nil {
					return err
				}
				got[i] = fmt.Sprint(len(msg), " bytes, intact ", bytes.Equal(msg, payload), ", at ", p.Time())
			}
			return nil
		}), "in").
		AddNet("link", 0, "modem.out", "handheld.in").
		BuildLocal()
	if err != nil {
		panic(err)
	}
	if err := sim.Run(Infinity); err != nil {
		panic(err)
	}
	for i, level := range levels {
		fmt.Printf("%s: %d drives, %s\n", level, drives[i], got[i])
	}
	// Output:
	// wordLevel: 626 drives, 2500 bytes, intact true, at 500us
	// packetLevel: 3 drives, 2500 bytes, intact true, at 560us
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

// Each pair of subsystems gets a channel of its own (§2.2.2–2.2.3):
// here a conservative one with 1 µs of latency by default, and an
// optimistic one with 40 µs to the remote site.
func ExampleSystemBuilder_SetChannel() {
	lab, remote := &arrivals{}, &arrivals{}
	sim, err := NewSystem("sites").
		AddComponent("src", "home", &pingState{N: 2}, "out").
		AddComponent("lab", "lab", lab, "in").
		AddComponent("remote", "remote", remote, "in").
		AddNet("wire", 0, "src.out", "lab.in", "remote.in").
		SetDefaultChannel(Conservative, LinkModel{Latency: Microseconds(1)}).
		SetChannel("home", "remote", Optimistic, LinkModel{Latency: Microseconds(40)}).
		BuildLocal()
	if err != nil {
		panic(err)
	}
	defer sim.Close()
	if err := sim.Run(Time(Milliseconds(1))); err != nil {
		panic(err)
	}
	fmt.Println(lab.At, remote.At)
	// Output:
	// [1010ns 1020ns] [40010ns 40020ns]
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

// The basic-block timing estimator (DESIGN.md §2) prices a block's
// instruction mix on a processor model and charges it against the
// component's local time, as an annotation in its source would.
func ExampleNewEstimator() {
	est, err := NewEstimator(ModelI960)
	if err != nil {
		panic(err)
	}
	sim, err := NewSystem("timing").
		AddComponent("cpu", "main", BehaviorFunc(func(p *Proc) error {
			loop := TimingBlock{Instr: 12, Loads: 3, Stores: 1, Branches: 1}
			for range 10 {
				est.Charge(p, loop)
			}
			fmt.Println(p.Time(), est.Charged) // 21 cycles a block at 33 MHz
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
	// 6360ns 6360ns
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
