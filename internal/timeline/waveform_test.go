package timeline

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/signal"
)

// digest hashes the drive events of evs in the order given, so two
// runs that drove the same values at the same times digest alike.
func digest(evs []Event) uint64 {
	h := fnv.New64a()
	for i := range evs {
		if e := &evs[i]; e.Kind == KindDrive {
			fmt.Fprintf(h, "%d|%s|%s|%s|%s\n", e.VT, e.Sub, e.Net, e.Comp, e.Detail)
		}
	}
	return h.Sum64()
}

func TestVCDIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
		for j := 0; j < len(id); j++ {
			if id[j] < 33 || id[j] > 126 {
				t.Fatalf("id %q contains non-printable byte", id)
			}
		}
	}
}

func TestSanitize(t *testing.T) {
	if sanitize("a b/c-d") != "a_b_c_d" || sanitize("") != "_" || sanitize("ok_9") != "ok_9" {
		t.Fatal("sanitize wrong")
	}
}

// TestVCDSanitizedCollisions checks that raw names which sanitize to
// the same identifier — nets "a-b" vs "a_b" in one subsystem, or
// subsystems "s-1" vs "s_1" — are disambiguated in the declarations,
// while the digest (computed over raw names) is untouched.
func TestVCDSanitizedCollisions(t *testing.T) {
	r := NewRecorder(0)
	r.Drive("s-1", "x", "a-b", 10, signal.Word(1))
	r.Drive("s-1", "x", "a_b", 20, signal.Word(2))
	r.Drive("s_1", "x", "a_b", 30, signal.Word(3))
	before := digest(r.Events())
	var buf bytes.Buffer
	if err := WriteVCD(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	vcd := buf.String()
	// Both nets of subsystem "s-1" must be declared under distinct
	// names, and the two subsystems under distinct scope names.
	for _, want := range []string{
		"$var wire 32 ! a_b $end",
		"$var wire 32 \" a_b_2 $end",
		"$scope module s_1 $end",
		"$scope module s_1_2 $end",
	} {
		if !strings.Contains(vcd, want) {
			t.Fatalf("VCD missing %q:\n%s", want, vcd)
		}
	}
	if got := digest(r.Events()); got != before {
		t.Fatalf("digest changed across WriteVCD: %x -> %x", before, got)
	}
}

// TestVCDLevelOnWidenedVar: a net that carried both Level and Word
// values (detail switch mid-run) is declared as a 32-bit vector, so
// its Level changes must use vector (b0/b1) syntax — a scalar change
// on a vector var is malformed.
func TestVCDLevelOnWidenedVar(t *testing.T) {
	r := NewRecorder(0)
	r.Drive("dut", "x", "dma", 10, signal.Level(true))
	r.Drive("dut", "x", "dma", 20, signal.Word(7))
	r.Drive("dut", "x", "dma", 30, signal.Level(false))
	// The waveform reads drives only, whatever else the ring holds.
	r.Checkpoint("dut", "t", 25)
	r.Send("dut", "peer", "dma", 20)
	var buf bytes.Buffer
	if err := WriteVCD(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	vcd := buf.String()
	if !strings.Contains(vcd, "$var wire 32 ! dma $end") {
		t.Fatalf("dma not widened to 32 bits:\n%s", vcd)
	}
	if !strings.Contains(vcd, "b1 !") || !strings.Contains(vcd, "b0 !") {
		t.Fatalf("level changes on widened var not in vector form:\n%s", vcd)
	}
	if strings.Contains(vcd, "\n1!") || strings.Contains(vcd, "\n0!") {
		t.Fatalf("scalar change emitted for vector var:\n%s", vcd)
	}
	if strings.Count(vcd, "$var ") != 1 || strings.Count(vcd, "\n#") != 3 {
		t.Fatalf("non-drive events leaked into the waveform:\n%s", vcd)
	}
}

// TestDigestSurvivesNativeRoundTrip: Value is not serialized, Detail
// is, so a per-node file keeps every drive field the digest reads:
// it digests like the ring that wrote it.
func TestDigestSurvivesNativeRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	r.Drive("a", "cpu", "bus", 10, signal.Word(0x1234))
	r.Send("a", "b", "bus", 12)
	r.Drive("a", "cpu", "irq", 20, signal.Level(true))
	var buf bytes.Buffer
	if err := r.WriteNative(&buf); err != nil {
		t.Fatal(err)
	}
	_, evs, err := readNative(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(evs), digest(r.Events()); got != want {
		t.Fatalf("digest of the file %x, of the ring %x", got, want)
	}
}
