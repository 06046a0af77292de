// isscpu: an instruction set simulator as a Pia component. A small
// RISC program computes Fibonacci numbers and writes each one to its
// output port; a peripheral raises a timer interrupt the program
// takes with WFI; the whole run is captured and dumped as a VCD
// waveform you can open in GTKWave.
//
//	go run ./examples/isscpu > fib.vcd
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"

	pia "repro"
	"repro/internal/signal"
	"repro/internal/timeline"
)

const program = `
	; fibonacci: out 1 1 2 3 5 8 13 21 34 55, then wait for the timer
	li   r1, 0         ; a
	li   r2, 1         ; b
	li   r3, 0         ; i
	li   r4, 10        ; count
loop:	add  r5, r1, r2    ; next
	out  r2
	mov  r1, r2
	mov  r2, r5
	addi r3, r3, 1
	blt  r3, r4, loop
	wfi                ; take the timer interrupt
	li   r6, 0x700     ; IRQ mailbox
	ld   r7, [r6]
	out  r7            ; report which line fired
	halt
`

// watcher records CPU output.
type watcher struct {
	Got []uint32
}

func (w *watcher) Run(p *pia.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		if word, isW := m.Value.(signal.Word); isW {
			w.Got = append(w.Got, uint32(word))
		}
	}
}

// maxWords caps the words a watcher's state may hold.
const maxWords = 1 << 20

// SaveState lays out the words seen: their count, then each word in
// four bytes.
func (w *watcher) SaveState() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(w.Got)))
	for _, word := range w.Got {
		b = binary.BigEndian.AppendUint32(b, word)
	}
	return b, nil
}

func (w *watcher) RestoreState(b []byte) error {
	f := pia.ReadFields(b)
	w.Got = make([]uint32, f.Len(maxWords, 4))
	for i := range w.Got {
		w.Got[i] = f.U32()
	}
	return f.Done()
}

// timer raises one interrupt.
type timer struct {
	Fired bool
}

func (t *timer) Run(p *pia.Proc) error {
	if t.Fired {
		return nil
	}
	p.Delay(pia.Microseconds(10))
	p.Send("irq", signal.IRQ{Line: 5, Cause: "timer"})
	t.Fired = true
	return nil
}

// SaveState lays out whether the timer has fired as one byte.
func (t *timer) SaveState() ([]byte, error) {
	if t.Fired {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

func (t *timer) RestoreState(b []byte) error {
	f := pia.ReadFields(b)
	fired := f.Byte()
	if fired > 1 {
		f.Failf("timer: fired byte %d", fired)
	}
	t.Fired = fired == 1
	return f.Done()
}

func main() {
	prog, err := pia.AssembleISS(program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "program:")
	for i, line := range pia.DisassembleISS(prog) {
		fmt.Fprintf(os.Stderr, "  %2d: %s\n", i, line)
	}

	cpu := &pia.ISSCPU{Prog: prog, ModelName: "i960", IRQPort: "irq"}
	w := &watcher{}
	b := pia.NewSystem("isscpu").
		AddComponent("cpu", "main", cpu, "out", "in", "irq").
		AddComponent("watch", "main", w, "in").
		AddComponent("timer", "main", &timer{}, "irq").
		AddNet("bus", 0, "cpu.out", "watch.in").
		AddNet("irqline", 0, "timer.irq", "cpu.irq")
	sim, err := b.BuildLocal()
	if err != nil {
		log.Fatal(err)
	}
	rec := sim.EnableTimeline(nil)

	if err := sim.Run(pia.Infinity); err != nil {
		log.Fatal(err)
	}

	fmt.Fprintf(os.Stderr, "cpu executed %d instructions in %v virtual time (i960 @33MHz)\n",
		cpu.Executed, cpu.CyclesCharged())
	fmt.Fprintf(os.Stderr, "outputs: %v\n", w.Got)
	if err := timeline.WriteVCD(os.Stdout, rec.Events()); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "VCD waveform written to stdout")
}
