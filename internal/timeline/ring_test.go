package timeline

import (
	"fmt"
	"testing"

	"repro/internal/signal"
	"repro/internal/vtime"
)

// refRecorder is the reference the ring must match: a plain slice that
// re-copies the retained window on every overflowing append and
// filters it on every restore. The ring must agree with it event for
// event through any sequence of drives and restores, at any limit.
type refRecorder struct {
	events []Event
	limit  int
	hw     map[string]vtime.Time
	stats  stats
}

func (r *refRecorder) record(e Event) {
	if e.VT > r.hw[e.Sub] {
		r.hw[e.Sub] = e.VT
	}
	r.stats.Recorded++
	r.events = append(r.events, e)
	if len(r.events) > r.limit {
		r.stats.Evicted++
		r.events = append(r.events[:0], r.events[len(r.events)-r.limit:]...)
	}
}

func (r *refRecorder) restore(sub string, t vtime.Time) {
	kept := r.events[:0]
	for _, e := range r.events {
		if e.Sub == sub && e.VT > t {
			r.stats.RewindDropped++
			continue
		}
		kept = append(kept, e)
	}
	r.events = kept
	if hw := r.hw[sub]; hw > t {
		r.record(Event{Kind: KindRewind, Sub: sub, VT: t, VT2: hw})
	}
	r.record(Event{Kind: kindRestore, Sub: sub, VT: t})
	r.hw[sub] = t
}

// sameHistory compares what the model defines: kind, owner, both
// clocks and the driven value (Seq, Wall and Node are the recorder's
// own stamps).
func sameHistory(a, b []Event) error {
	if len(a) != len(b) {
		return fmt.Errorf("len %d != reference %d", len(a), len(b))
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Kind != y.Kind || x.Sub != y.Sub || x.VT != y.VT || x.VT2 != y.VT2 || x.Value != y.Value {
			return fmt.Errorf("event %d = %+v, reference %+v", i, *x, *y)
		}
	}
	return nil
}

// TestRingMatchesReference drives the ring and the reference with one
// deterministic pseudo-random operation stream from a tiny LCG (the
// sequence stays explicit and stable): drives on two subsystems with
// a restore of one of them every twentieth operation or so, across
// limits that never wrap, wrap at once, and wrap between restores.
func TestRingMatchesReference(t *testing.T) {
	for _, limit := range []int{0, 1, 7, 64} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			ring := NewRecorder(limit)
			ref := &refRecorder{limit: limit, hw: map[string]vtime.Time{}}
			if limit == 0 {
				ref.limit = DefaultLimit
			}
			state := uint64(12345)
			next := func(n uint64) uint64 {
				state = state*6364136223846793005 + 1442695040888963407
				return (state >> 33) % n
			}
			subs := []string{"a", "b"}
			for op := 0; op < 2000; op++ {
				if next(20) == 0 {
					sub, cut := subs[next(2)], vtime.Time(next(1000))
					ring.Restore(sub, "", cut)
					ref.restore(sub, cut)
				} else {
					at, sub, v := vtime.Time(next(1000)), subs[next(2)], int(next(100))
					ring.Drive(sub, "s", "n", at, v)
					ref.record(Event{Kind: KindDrive, Sub: sub, Comp: "s", Net: "n", VT: at, Detail: fmt.Sprint(v), Value: v})
				}
				if err := sameHistory(ring.Events(), ref.events); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if got, want := digest(ring.Events()), digest(ref.events); got != want {
					t.Fatalf("op %d: digest diverged from reference", op)
				}
				ref.stats.Buffered = len(ref.events)
				if got := ring.Stats(); got != ref.stats {
					t.Fatalf("op %d: stats %+v, reference %+v", op, got, ref.stats)
				}
			}
			// Every tail is a suffix of the whole view.
			all := ring.Events()
			for _, n := range []int{0, 1, 3, len(all), len(all) + 5} {
				want := all[max(0, len(all)-n):]
				if err := sameHistory(ring.Tail(n), want); err != nil {
					t.Fatalf("Tail(%d): %v", n, err)
				}
			}
		})
	}
}

// TestDropAfterInterleavedRestores: two subsystems share one recorder;
// each restores independently, and each restore drops only its own
// subsystem's future while the other's interleaved events survive —
// including with ring retention in play.
func TestDropAfterInterleavedRestores(t *testing.T) {
	for _, limit := range []int{0, 6} {
		r := NewRecorder(limit)
		for i := 1; i <= 6; i++ {
			r.Drive("a", "x", "na", vtime.Time(10*i), signal.Word(i))
			r.Drive("b", "y", "nb", vtime.Time(10*i+5), signal.Word(i))
		}
		// With limit 6 the ring keeps the last 6: a@50, b@55, a@60, b@65
		// plus the tail of round 4. Restore a back to 40, then b to 55:
		// the drops must interleave correctly regardless of ring state.
		r.Restore("a", "", 40)
		r.Restore("b", "", 55)
		counts := map[string]int{}
		for _, e := range r.Events() {
			if e.Sub == "a" && e.VT > 40 {
				t.Fatalf("limit %d: a's future event @%v survived", limit, e.VT)
			}
			if e.Sub == "b" && e.VT > 55 {
				t.Fatalf("limit %d: b's future event @%v survived", limit, e.VT)
			}
			if e.Kind == KindDrive {
				counts[e.Sub]++
			}
		}
		// Unlimited: a keeps 10..40 (4 drives), b keeps 15..55 (5).
		if limit == 0 && (counts["a"] != 4 || counts["b"] != 5) {
			t.Fatalf("kept counts %v, want a:4 b:5", counts)
		}
		// The recorder must still accept and retain new events after
		// interleaved drops reset the ring.
		r.Drive("a", "x", "na", 100, signal.Word(99))
		evs := r.Events()
		if evs[len(evs)-1].VT != 100 {
			t.Fatalf("limit %d: post-drop record lost", limit)
		}
	}
}

// TestRecordSteadyStateZeroAllocs: once the ring has wrapped, each
// further record must touch O(1) memory — overwrite in place, no
// re-copy, no allocation. (Drive itself allocates the printed Detail;
// this pins the ring under it.)
func TestRecordSteadyStateZeroAllocs(t *testing.T) {
	r := NewRecorder(1024)
	e := Event{Kind: KindDrive, Sub: "s", Comp: "c", Net: "n", VT: 1, Detail: "7", Value: 7}
	for i := 0; i < 1024+10; i++ {
		r.record(e)
	}
	if st := r.Stats(); st.Evicted != 10 || st.Buffered != 1024 {
		t.Fatalf("ring not at its wrapped steady state: %+v", st)
	}
	allocs := testing.AllocsPerRun(1000, func() { r.record(e) })
	if allocs != 0 {
		t.Fatalf("steady-state record allocates %.1f times/op, want 0", allocs)
	}
}

// BenchmarkRecorderRecord measures steady-state records on a wrapped
// ring. The cost must not scale with the limit and must allocate
// nothing.
func BenchmarkRecorderRecord(b *testing.B) {
	for _, limit := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			r := NewRecorder(limit)
			e := Event{Kind: KindDrive, Sub: "sub", Comp: "comp", Net: "net", VT: 1, Detail: "42", Value: 42}
			for i := 0; i < limit; i++ {
				r.record(e) // fill to steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.VT = vtime.Time(i)
				r.record(e)
			}
		})
	}
}
