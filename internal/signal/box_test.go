package signal

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"runtime"
	"testing"
)

// TestBoxIsAWord checks that a boxed word, small or large, is in every
// observable way the value any(w) would be.
func TestBoxIsAWord(t *testing.T) {
	var b WordBoxes
	for _, w := range []Word{0, 7, 255, 256, 0xdeadbeef, 0xffffffff} {
		v := b.Box(w)
		if got, ok := v.(Word); !ok || got != w {
			t.Errorf("Box(%#x).(Word) = %v, %v", w, got, ok)
		}
		switch x := v.(type) {
		case Word:
			if x != w {
				t.Errorf("type switch on Box(%#x) read %#x", w, x)
			}
		default:
			t.Errorf("type switch on Box(%#x) matched %T", w, v)
		}
		if reflect.TypeOf(v) != reflect.TypeOf(Word(0)) {
			t.Errorf("reflect.TypeOf(Box(%#x)) = %v", w, reflect.TypeOf(v))
		}
		if v != any(w) {
			t.Errorf("Box(%#x) != any(%#x)", w, w)
		}
		if String(v) != String(any(w)) {
			t.Errorf("String(Box(%#x)) = %q, want %q", w, String(v), String(any(w)))
		}
		if Size(v) != 4 {
			t.Errorf("Size(Box(%#x)) = %d, want 4", w, Size(v))
		}
	}
}

// TestBoxGobRoundTrip sends boxed words through gob as snapshot and
// migration images do, behind an interface of Register's types.
func TestBoxGobRoundTrip(t *testing.T) {
	Register()
	var b WordBoxes
	in := []any{b.Box(3), b.Box(0x12345678), Level(true), b.Box(0xffffffff)}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out []any
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("gob round trip: %v, want %v", out, in)
	}
}

// TestBoxSurvivesGC holds boxes only through a []any across many
// chunks: the chunks must stay alive and unchanged through collections.
func TestBoxSurvivesGC(t *testing.T) {
	const n = 10_000
	want := func(i int) Word { return Word(256 + i*7919) }
	vals := make([]any, n)
	var b WordBoxes
	for i := range vals {
		vals[i] = b.Box(want(i))
	}
	b = WordBoxes{} // the boxer no longer holds the last chunk
	runtime.GC()
	runtime.GC()
	for i, v := range vals {
		if v.(Word) != want(i) {
			t.Fatalf("vals[%d] = %#x after GC, want %#x (chunk slot %d)", i, v, want(i), i%WordChunk)
		}
	}
}

// TestBoxAllocsPerChunk is the point of the boxer: 256 words >= 256
// cost at most one chunk allocation.
func TestBoxAllocsPerChunk(t *testing.T) {
	var b WordBoxes
	var sink any
	avg := testing.AllocsPerRun(100, func() {
		b = WordBoxes{}
		for i := range WordChunk {
			sink = b.Box(Word(1000 + i))
		}
	})
	if avg > 1 {
		t.Fatalf("%d boxes cost %.2f allocations, want <= 1", WordChunk, avg)
	}
	_ = sink
}
