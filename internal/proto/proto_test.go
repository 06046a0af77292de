package proto

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/vtime"
)

// pipe runs one transfer at the given level through a subsystem and
// returns the received payload and the receiver's completion time.
func pipe(t *testing.T, payload []byte, level string, cfg Config) ([]byte, vtime.Time, int) {
	t.Helper()
	s := core.NewSubsystem("p")
	drives := 0
	tx := core.BehaviorFunc(func(p *core.Proc) error {
		drives = SendMessage(p, "out", payload, level, cfg)
		return nil
	})
	var got []byte
	var at vtime.Time
	rx := core.BehaviorFunc(func(p *core.Proc) error {
		a := NewAssembler()
		msg, ok, err := ReceiveMessage(p, "in", a)
		if err != nil {
			return err
		}
		if ok {
			got = msg
			at = p.Time()
		}
		return nil
	})
	tc, _ := s.NewComponent("tx", tx)
	tc.AddPort("out")
	rc, _ := s.NewComponent("rx", rx)
	rc.AddPort("in")
	n, _ := s.NewNet("w", 1)
	s.Connect(n, tc.Port("out"), rc.Port("in"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	return got, at, drives
}

func TestRoundTripAllLevels(t *testing.T) {
	payload := make([]byte, 3000)
	rng := rand.New(rand.NewSource(42))
	rng.Read(payload)
	for _, level := range []string{LevelHardware, LevelWord, LevelPacket} {
		got, _, drives := pipe(t, payload, level, DefaultConfig)
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: payload corrupted (%d vs %d bytes)", level, len(got), len(payload))
		}
		if want := Drives(len(payload), level, DefaultConfig); drives != want {
			t.Fatalf("%s: %d drives, Drives() predicts %d", level, drives, want)
		}
	}
}

func TestLevelsOrderedByCost(t *testing.T) {
	payload := make([]byte, 4096)
	_, tHW, dHW := pipe(t, payload, LevelHardware, DefaultConfig)
	_, tW, dW := pipe(t, payload, LevelWord, DefaultConfig)
	_, tP, dP := pipe(t, payload, LevelPacket, DefaultConfig)
	if !(dHW > dW && dW > dP) {
		t.Fatalf("drive counts not ordered: hw=%d word=%d packet=%d", dHW, dW, dP)
	}
	if !(tHW > tW && tW > tP) {
		t.Fatalf("virtual times not ordered: hw=%v word=%v packet=%v", tHW, tW, tP)
	}
}

func TestOddLengths(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 1023, 1024, 1025, 2048} {
		payload := bytes.Repeat([]byte{0xA5}, n)
		for _, level := range []string{LevelHardware, LevelWord, LevelPacket} {
			got, _, _ := pipe(t, payload, level, DefaultConfig)
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s with %d bytes: corrupted", level, n)
			}
		}
	}
}

func TestUnknownLevelFallsBackToPacket(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 100)
	got, _, drives := pipe(t, payload, "strangeLevel", DefaultConfig)
	if !bytes.Equal(got, payload) {
		t.Fatal("fallback level corrupted payload")
	}
	if drives != 1 {
		t.Fatalf("fallback drives = %d, want 1 packet", drives)
	}
}

func TestAssemblerErrors(t *testing.T) {
	a := NewAssembler()
	// Word without header.
	if _, _, err := a.Feed(wordOf(1)); err == nil {
		t.Fatal("word without header accepted")
	}
	a.Reset()
	// Header inside a transfer.
	if _, _, err := a.Feed(lenCtl(8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Feed(lenCtl(8)); err == nil {
		t.Fatal("nested header accepted")
	}
	a.Reset()
	// Frame inside a word transfer.
	if _, _, err := a.Feed(lenCtl(8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Feed(frameOf([]byte{1}, true)); err == nil {
		t.Fatal("frame inside word transfer accepted")
	}
}

func TestAssemblerIgnoresForeignValues(t *testing.T) {
	a := NewAssembler()
	if _, done, err := a.Feed(42); err != nil || done {
		t.Fatal("foreign value disturbed the assembler")
	}
	if _, done, err := a.Feed(ctlOf("other", 3)); err != nil || done {
		t.Fatal("foreign control disturbed the assembler")
	}
}

func TestBarePacketIsComplete(t *testing.T) {
	a := NewAssembler()
	payload, done, err := a.Feed(packetOf([]byte{9, 8, 7}))
	if err != nil || !done || !bytes.Equal(payload, []byte{9, 8, 7}) {
		t.Fatalf("bare packet: %v %v %v", payload, done, err)
	}
	if a.Messages != 1 {
		t.Fatal("message counter wrong")
	}
}

// Property: Drives is monotone in payload length at every level.
func TestDrivesMonotoneProperty(t *testing.T) {
	f := func(n uint16, extra uint8) bool {
		for _, level := range []string{LevelHardware, LevelWord, LevelPacket} {
			if Drives(int(n)+int(extra), level, DefaultConfig) < Drives(int(n), level, DefaultConfig) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAssemblerPresizesFromHeader: the length header sizes buf once —
// a 64 KB word transfer never re-grows it — and a header no transfer
// could honour allocates no more than maxPresize ahead of the data.
func TestAssemblerPresizesFromHeader(t *testing.T) {
	const size = 64 << 10
	a := NewAssembler()
	if _, _, err := a.Feed(lenCtl(size)); err != nil {
		t.Fatal(err)
	}
	grows, capBefore := 0, cap(a.buf)
	if capBefore < size {
		t.Fatalf("header of %d pre-sized buf to %d", size, capBefore)
	}
	for i := 0; i < size/4; i++ {
		payload, done, err := a.Feed(wordOf(uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if c := cap(a.buf); c != capBefore {
			grows, capBefore = grows+1, c
		}
		if done != (i == size/4-1) || (done && len(payload) != size) {
			t.Fatalf("word %d: done=%v len=%d", i, done, len(payload))
		}
	}
	if grows != 0 {
		t.Fatalf("buf grew %d times during a pre-sized transfer", grows)
	}

	// A second transfer of the same size reuses the buffer.
	if _, _, err := a.Feed(lenCtl(size)); err != nil {
		t.Fatal(err)
	}
	if cap(a.buf) != capBefore {
		t.Fatalf("second header reallocated buf: cap %d -> %d", capBefore, cap(a.buf))
	}
	a.Reset()

	// Hostile headers: huge and negative.
	h := NewAssembler()
	if _, _, err := h.Feed(lenCtl(1 << 40)); err != nil {
		t.Fatal(err)
	}
	if cap(h.buf) > maxPresize {
		t.Fatalf("len header of 1<<40 allocated %d bytes, cap is %d", cap(h.buf), maxPresize)
	}
	if _, done, err := h.Feed(wordOf(7)); err != nil || done {
		t.Fatalf("word after huge header: done=%v err=%v", done, err)
	}
	n := NewAssembler()
	if _, _, err := n.Feed(lenCtl(-5)); err != nil || cap(n.buf) != 0 {
		t.Fatalf("negative header: err=%v cap=%d", err, cap(n.buf))
	}
}
