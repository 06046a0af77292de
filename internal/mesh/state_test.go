package mesh

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	pia "repro"
	"repro/internal/core"
	"repro/internal/iss"
	"repro/internal/wubbleu"
)

// allocBound bounds what restoring a state of n bytes may allocate:
// a layout sizes its lists and copies by the bytes it reads, under its
// named caps, never by a length the state merely declares.
func allocBound(n int) uint64 { return 64*uint64(n) + 4096 }

// restoreAllocs is the fewest bytes the process allocated in three
// restores of state into sv: the counter is the process's, and a
// restore allocates the same each time.
func restoreAllocs(sv core.StateSaver, state []byte) uint64 {
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for range 3 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_ = sv.RestoreState(state) // the caller checks the outcome; here only the bytes count
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	return least
}

// migratable is an instance of every behaviour a mesh migration can
// restore — WubbleU's seven modules, the demo's four and iss.CPU —
// after a run of two WubbleU loads of an 8 KB page, the first cached.
func migratable(t testing.TB) map[string]core.StateSaver {
	t.Helper()
	cfg := wubbleu.DefaultConfig()
	cfg.PageSize, cfg.Loads = 8*1024, 2
	b := pia.NewSystem("states")
	app, err := wubbleu.Install(b, cfg, wubbleu.LocalPlacement())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(pia.Infinity); err != nil {
		t.Fatal(err)
	}
	return map[string]core.StateSaver{
		"ui": app.UI, "recog": app.Recog, "browser": app.Brow, "cache": app.Cache,
		"jpeg": app.JPEG, "asic": app.ASIC, "server": app.Server,
		"hot":   &hotBeh{N: 8, Period: 3, Sinks: 2, I: 5, Got: 9, Sum: 14695981039346656037},
		"sink":  &sinkBeh{Count: 4},
		"pump":  &pumpBeh{N: 8, Period: 3, I: 6},
		"drain": &drainBeh{Count: 6},
		"cpu":   &iss.CPU{PC: 7, Regs: [16]uint32{1: 3, 15: 1 << 31}, Executed: 40, IRQs: 2},
	}
}

// FuzzBehaviourState feeds hostile bytes to the RestoreState of every
// behaviour a mesh migration can reach: none may panic or allocate past
// allocBound, and every state one accepts must save back to the same
// bytes, so a layout has one encoding of each state.
func FuzzBehaviourState(f *testing.F) {
	behs := migratable(f)
	for _, sv := range behs {
		state, err := sv.SaveState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(state)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, state []byte) {
		for name, sv := range behs {
			if n := restoreAllocs(sv, state); n > allocBound(len(state)) {
				t.Errorf("%s: restoring %d bytes allocated %d", name, len(state), n)
			}
			if err := sv.RestoreState(state); err != nil {
				continue
			}
			if saved, err := sv.SaveState(); err != nil || !bytes.Equal(saved, state) {
				t.Errorf("%s accepted % x but saves % x (%v)", name, state, saved, err)
			}
		}
	})
}
