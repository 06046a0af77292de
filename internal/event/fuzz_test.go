package event

import (
	"math/rand"
	"testing"
)

// FuzzQueue is TestQueueModel's walk on a byte stream: each call is two
// bytes, the call (its top bit the kind of the events it pushes) and its
// argument, so the fuzzer spells any interleaving of paced, in-order
// and out-of-order pushes, stamped re-pushes, pops, filtered pops,
// drains, snapshots and resets, and every event handed back and the
// queue's shape after every call are checked against the reference.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{opPushPaced, 0, opPushPaced, 0, opPushPaced, 0, opPop, 0, opPushPaced, 0, opPopMatching, 1, opPopBatch, 3})
	f.Add([]byte{opPushNext, 1, opPushNext, 2, opPushPaced, 0, opPushAny, 0, opPop, 0, opRepush, 2, opSnapshot, 0, opPop, 0})
	f.Add([]byte{opPushPaced, 64, 128 + opPushPaced, 0, opPushPaced, 0, opPushNext, 130, opPopMatching, 0, opPushPaced, 0, opPopBatch, 200, opReset, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := &walk{model: &model{t: t, rng: rand.New(rand.NewSource(1)), cold: 5}, q: new(Queue)}
		for i := 0; i+1 < len(data) && i < 2048; i += 2 {
			w.kind = Kind(data[i] >> 7)
			w.do(int(data[i]&0x7f)%nOps, data[i+1])
		}
		w.popAll(w.q)
		checkShape(t, w.q)
	})
}
