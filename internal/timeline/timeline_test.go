package timeline

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vtime"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Drive("s", "c", "n", 1, 7)
	r.Send("a", "b", "n", 1)
	r.Deliver("a", "b", "n", 1)
	r.Checkpoint("s", "", 1)
	r.Restore("s", "", 0)
	r.Runlevel("s", "c", "word", 1)
	r.Stall("s", 1, 2)
	r.Resume("s", 2)
	r.Ask("a", "b", 1)
	r.Grant("a", "b", 1)
	r.Straggler("a", "b", "n", 1, 2)
	r.Fault("l", "drop", 3)
	r.SessionEvent("sess", "resume", "")
	r.Migrate("s", "c", "a", "b", "quiesce", 1)
	r.SetNode("x")
	r.Subscribe(func(Event) { t.Fatal("a nil recorder has no subscriber to call") })
	if r.Len() != 0 || r.Events() != nil || r.nodeName() != "" {
		t.Fatal("nil recorder must be inert")
	}
	if (r.Stats() != stats{}) {
		t.Fatal("nil recorder stats must be zero")
	}
}

// TestSubscriberSeesEachEventOnce: the one subscriber is handed every
// recorded event exactly once, stamped as the ring holds it, in record
// order, one call at a time — whether the events come from one
// goroutine or from several at once — and a rewind reaches it as the
// marker and restore that follow the events it discards.
func TestSubscriberSeesEachEventOnce(t *testing.T) {
	r := NewRecorder(0)
	r.SetNode("n")
	var (
		seen     []Event
		inFlight atomic.Int32
		overlap  atomic.Bool
	)
	r.Subscribe(func(e Event) {
		if inFlight.Add(1) != 1 {
			overlap.Store(true)
		}
		seen = append(seen, e)
		inFlight.Add(-1)
	})

	r.Drive("s", "c", "n", 1, 7)
	r.Send("s", "t", "n", 2)
	r.Fault("link", "drop", 3)
	r.SessionEvent("chan:s>t", "opened", "to peer")
	r.Checkpoint("s", "k", 2)
	if !reflect.DeepEqual(seen, r.Events()) {
		t.Fatalf("one goroutine: the subscriber saw\n%+v\nthe ring holds\n%+v", seen, r.Events())
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.SessionEvent(fmt.Sprintf("session-%d", g), "resume", fmt.Sprint(i))
			}
		}()
	}
	wg.Wait()
	if overlap.Load() {
		t.Fatal("the subscriber was called while another call was in flight")
	}
	if !reflect.DeepEqual(seen, r.Events()) || uint64(len(seen)) != r.Stats().Recorded {
		t.Fatalf("concurrent recorders: the subscriber saw %d events, the recorder recorded %d", len(seen), r.Stats().Recorded)
	}

	before := len(seen)
	r.Drive("s", "c", "n", 5, 8)
	r.Restore("s", "k", 2)
	tail := seen[before:]
	if len(tail) != 3 || tail[0].Kind != KindDrive || tail[1].Kind != KindRewind || tail[2].Kind != kindRestore {
		t.Fatalf("a drive then a restore reached the subscriber as %+v", tail)
	}

	r.Subscribe(nil)
	r.Drive("s", "c", "n", 3, 9)
	if len(seen) != before+3 {
		t.Fatal("a removed subscriber was still called")
	}
}

func TestRingRetention(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Drive("s", "c", "n", vtime.Time(i), i)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.VT != vtime.Time(6+i) {
			t.Fatalf("event %d at vt %d, want %d (oldest must be evicted)", i, e.VT, 6+i)
		}
	}
	st := r.Stats()
	if st.Recorded != 10 || st.Evicted != 6 || st.Buffered != 4 {
		t.Fatalf("stats = %+v", st)
	}
	// Per-stream sequence numbers must be stable across eviction.
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("seqs = %d..%d, want 7..10", evs[0].Seq, evs[3].Seq)
	}
}

func TestRestoreDropsRolledBackSpans(t *testing.T) {
	r := NewRecorder(0)
	r.Drive("a", "c", "n", 10, 1)
	r.Drive("a", "c", "n", 20, 2)
	r.Drive("b", "c", "n", 25, 9) // other sub: must survive a's rewind
	r.Drive("a", "c", "n", 30, 3)
	r.Checkpoint("a", "snap", 15)
	r.Restore("a", "snap", 15)

	evs := r.Events()
	var kinds []eventKind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	// Surviving record order: a@10, b@25 (other sub), checkpoint a@15
	// (at the cut, not past it), then the rewind marker and restore.
	want := []eventKind{KindDrive, KindDrive, kindCheckpoint, KindRewind, kindRestore}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if evs[0].Sub != "a" || evs[0].VT != 10 {
		t.Fatalf("surviving a-drive = %+v", evs[0])
	}
	if evs[1].Sub != "b" || evs[1].VT != 25 {
		t.Fatalf("b's drive must survive, got %+v", evs[1])
	}
	rw := evs[3]
	if rw.VT != 15 || rw.VT2 != 30 {
		t.Fatalf("rewind window [%d,%d], want [15,30]", rw.VT, rw.VT2)
	}
	if st := r.Stats(); st.RewindDropped != 2 {
		// The a-drives at 20 and 30 roll back; nothing else does.
		t.Fatalf("RewindDropped = %d, want 2 (stats %+v)", st.RewindDropped, st)
	}
}

func TestRestoreWithNoFutureEmitsNoRewind(t *testing.T) {
	r := NewRecorder(0)
	r.Drive("a", "c", "n", 10, 1)
	r.Restore("a", "t", 10)
	for _, e := range r.Events() {
		if e.Kind == KindRewind {
			t.Fatal("no discarded future, but rewind marker emitted")
		}
	}
}

// TestCanonicalOrderIndependence records the same logical history with
// two different wall-clock interleavings of the per-stream event
// sources (as scheduler and transport-pump goroutines would produce)
// and asserts the canonical export bytes are identical.
func TestCanonicalOrderIndependence(t *testing.T) {
	mk := func(interleaved bool) []byte {
		r := NewRecorder(0)
		r.SetNode("n1")
		sched := func() {
			r.Drive("a", "cpu", "bus", 10, 1)
			r.Checkpoint("a", "", 20)
			r.Drive("a", "cpu", "bus", 30, 2)
		}
		channel := func() {
			r.Send("a", "b", "bus", 12)
			r.Deliver("b", "a", "ack", 14)
			r.Ask("a", "b", 40) // transient: must not affect canonical bytes
			r.Send("a", "b", "bus", 32)
		}
		if interleaved {
			// Simulate the pump goroutine landing between scheduler
			// steps: interleave stream records differently.
			r.Send("a", "b", "bus", 12)
			r.Drive("a", "cpu", "bus", 10, 1)
			r.Ask("a", "b", 40)
			r.Deliver("b", "a", "ack", 14)
			r.Checkpoint("a", "", 20)
			r.Drive("a", "cpu", "bus", 30, 2)
			r.Send("a", "b", "bus", 32)
		} else {
			sched()
			channel()
		}
		var buf bytes.Buffer
		if err := WritePerfetto(&buf, Canonical(r.Events()), ExportOptions{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := mk(false), mk(true)
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical export depends on record interleaving:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if bytes.Contains(a, []byte("\"ask")) {
		t.Fatal("canonical export must exclude transient kinds")
	}
}

func TestFlowPairing(t *testing.T) {
	r := NewRecorder(0)
	r.SetNode("n1")
	r.Send("a", "b", "bus", 10)
	r.Send("a", "b", "bus", 20)
	s := NewRecorder(0)
	s.SetNode("n2")
	s.Deliver("a", "b", "bus", 11)
	s.Deliver("a", "b", "bus", 21)

	var buf bytes.Buffer
	merged := Canonical(MergeEvents(r.Events(), s.Events()))
	if err := WritePerfetto(&buf, merged, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ids := regexp.MustCompile(`"id":"(0x[0-9a-f]+)"`).FindAllStringSubmatch(out, -1)
	if len(ids) != 4 {
		t.Fatalf("want 4 flow endpoints (2 sends + 2 delivers), got %d in:\n%s", len(ids), out)
	}
	count := map[string]int{}
	for _, m := range ids {
		count[m[1]]++
	}
	if len(count) != 2 {
		t.Fatalf("want 2 distinct flow ids each used twice, got %v", count)
	}
	for id, n := range count {
		if n != 2 {
			t.Fatalf("flow id %s used %d times, want 2 (start+finish)", id, n)
		}
	}
	if !strings.Contains(out, `"ph":"s"`) || !strings.Contains(out, `"ph":"f"`) {
		t.Fatal("missing flow start/finish phases")
	}
}

func TestNativeRoundTripAndMergeFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, node string, fill func(r *Recorder)) string {
		r := NewRecorder(0)
		r.SetNode(node)
		fill(r)
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.WriteNative(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return p
	}
	p1 := write("n1.json", "n1", func(r *Recorder) {
		r.Drive("a", "cpu", "bus", 10, 1)
		r.Send("a", "b", "bus", 12)
		r.Fault("wan", "drop", 3)
	})
	p2 := write("n2.json", "n2", func(r *Recorder) {
		r.Deliver("a", "b", "bus", 13)
		r.Drive("b", "dma", "bus", 14, 2)
	})

	f, err := os.Open(p1)
	if err != nil {
		t.Fatal(err)
	}
	node, evs, err := readNative(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if node != "n1" || len(evs) != 3 {
		t.Fatalf("round trip: node=%q events=%d", node, len(evs))
	}
	if evs[0].Node != "n1" || evs[0].Kind != KindDrive || evs[0].VT != 10 || evs[0].Detail != "1" {
		t.Fatalf("round trip event = %+v", evs[0])
	}

	var m1, m2 bytes.Buffer
	if err := MergeFiles(&m1, p1, p2); err != nil {
		t.Fatal(err)
	}
	if err := MergeFiles(&m2, p2, p1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Fatal("merged output depends on file order")
	}
	if !strings.Contains(m1.String(), `"ph":"f"`) {
		t.Fatal("merged output missing cross-node flow finish")
	}
	if strings.Contains(m1.String(), "fault") {
		t.Fatal("canonical merge must drop transient fault events")
	}
}

// TestMigrateCanonical pins the migrate span kind: it is part of the
// canonical (reproducible) set, survives Canonical filtering, and
// names its phases in the exported event title.
func TestMigrateCanonical(t *testing.T) {
	r := NewRecorder(16)
	for _, phase := range []string{"quiesce", "snapshot", "transfer", "splice", "resume"} {
		r.Migrate("alpha", "hot", "alpha", "bravo", phase, 100)
	}
	evs := Canonical(r.Events())
	if len(evs) != 5 {
		t.Fatalf("migrate events dropped by Canonical: %d of 5 kept", len(evs))
	}
	for _, e := range evs {
		if e.Kind != kindMigrate || !e.Kind.Canonical() {
			t.Fatalf("migrate event has non-canonical kind %v", e.Kind)
		}
		if e.From != "alpha" || e.To != "bravo" || e.VT != 100 {
			t.Fatalf("migrate event lost fields: %+v", e)
		}
	}
	if got := eventName(&evs[3]); got != "migrate hot splice alpha>bravo" {
		t.Fatalf("export name = %q", got)
	}
}
