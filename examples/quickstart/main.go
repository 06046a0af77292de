// Quickstart: the smallest useful Pia co-simulation — a traffic
// generator and a device under test exchanging values over a net,
// with virtual time managed by the kernel.
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	pia "repro"
)

// generator produces a burst of samples.
type generator struct {
	Sent int
}

func (g *generator) Run(p *pia.Proc) error {
	for g.Sent < 5 {
		p.Delay(pia.Microseconds(10)) // the sampling interval
		p.Send("out", g.Sent*g.Sent)
		g.Sent++
	}
	return nil
}

// SaveState lays out the generator's progress, the one count, as a
// varint; RestoreState reads it back and refuses any other bytes.
func (g *generator) SaveState() ([]byte, error) { return binary.AppendVarint(nil, int64(g.Sent)), nil }

func (g *generator) RestoreState(b []byte) error {
	f := pia.ReadFields(b)
	g.Sent = int(f.Varint())
	return f.Done()
}

// accumulator is the device under test: it integrates what it sees.
type accumulator struct {
	Sum int
}

func (a *accumulator) Run(p *pia.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil // simulation over
		}
		a.Sum += m.Value.(int)
		fmt.Printf("t=%-8v received %3v  sum=%d\n", m.Time, m.Value, a.Sum)
	}
}

func (a *accumulator) SaveState() ([]byte, error) { return binary.AppendVarint(nil, int64(a.Sum)), nil }

func (a *accumulator) RestoreState(b []byte) error {
	f := pia.ReadFields(b)
	a.Sum = int(f.Varint())
	return f.Done()
}

func main() {
	gen := &generator{}
	acc := &accumulator{}

	b := pia.NewSystem("quickstart").
		AddComponent("gen", "main", gen, "out").
		AddComponent("acc", "main", acc, "in").
		AddNet("wire", pia.Microseconds(1), "gen.out", "acc.in")
	sim, err := b.BuildLocal()
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(pia.Infinity); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final sum: %d (virtual time %v)\n", acc.Sum, sim.Subsystem("main").Now())
}
