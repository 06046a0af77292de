// Distributed: two Pia nodes in one process, connected over real
// loopback TCP, co-simulating a requester and a responder whose
// shared net is split across the nodes. Run with -optimistic to use
// optimistic channels (checkpoints + rollback) instead of the
// conservative safe-time protocol.
//
//	go run ./examples/distributed [-optimistic]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"time"

	pia "repro"
)

// requester sends queries and measures round trips.
type requester struct {
	Rounds int
	RTTs   []int64
}

func (r *requester) Run(p *pia.Proc) error {
	for i := 0; i < r.Rounds; i++ {
		start := p.Time()
		p.Send("req", i)
		m, ok := p.Recv("rsp")
		if !ok {
			return nil
		}
		r.RTTs = append(r.RTTs, int64(p.Time().Sub(start)))
		_ = m
	}
	return nil
}

// SaveState lays out the round trips measured so far: their count and
// each in turn. Rounds is configuration, so it is not saved.
func (r *requester) SaveState() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(r.RTTs)))
	for _, rtt := range r.RTTs {
		b = binary.AppendVarint(b, rtt)
	}
	return b, nil
}

func (r *requester) RestoreState(b []byte) error {
	f := pia.ReadFields(b)
	r.RTTs = make([]int64, f.Len(r.Rounds, 1))
	for i := range r.RTTs {
		r.RTTs[i] = f.Varint()
	}
	return f.Done()
}

// responder echoes queries after some compute time.
type responder struct {
	Served int
}

func (r *responder) Run(p *pia.Proc) error {
	for {
		m, ok := p.Recv("req")
		if !ok {
			return nil
		}
		p.Advance(pia.Microseconds(150)) // simulated processing
		r.Served++
		p.Send("rsp", m.Value)
	}
}

func (r *responder) SaveState() ([]byte, error) {
	return binary.AppendVarint(nil, int64(r.Served)), nil
}

func (r *responder) RestoreState(b []byte) error {
	f := pia.ReadFields(b)
	r.Served = int(f.Varint())
	return f.Done()
}

func main() {
	optimistic := flag.Bool("optimistic", false, "use optimistic channels")
	flag.Parse()

	req := &requester{Rounds: 8}
	rsp := &responder{}
	b := pia.NewSystem("distributed").
		AddComponent("client", "site-a", req, "req", "rsp").
		AddComponent("server", "site-b", rsp, "req", "rsp").
		AddNet("req", 0, "client.req", "server.req").
		AddNet("rsp", 0, "client.rsp", "server.rsp")
	policy := pia.Conservative
	if *optimistic {
		policy = pia.Optimistic
	}
	b.SetDefaultChannel(policy, pia.LANLink)

	n1, n2 := pia.NewNode("node-a"), pia.NewNode("node-b")
	cl, err := b.BuildOnNodes(map[string]*pia.Node{"site-a": n1, "site-b": n2})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	if *optimistic {
		for _, name := range cl.SubsystemNames() {
			cl.Subsystem(name).SetAutoCheckpoint(pia.Milliseconds(1))
			cl.Subsystem(name).SetCheckpointRetention(1000)
		}
	}

	start := time.Now()
	if err := cl.Run(pia.Time(pia.Seconds(1))); err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	fmt.Printf("policy: %v, %d round trips over TCP-split nets\n", policy, len(req.RTTs))
	for i, rtt := range req.RTTs {
		fmt.Printf("  round %d: %v virtual\n", i, pia.Duration(rtt))
	}
	for _, name := range cl.SubsystemNames() {
		st := cl.Subsystem(name).Stats()
		fmt.Printf("%s: steps=%d stalls=%d restores=%d\n", name, st.Steps, st.Stalls, st.Restores)
	}
	fmt.Printf("wall clock: %v\n", wall)
}
