package experiments

import (
	"testing"
	"time"
)

// TestParallelSweepInvariant runs a scaled-down sweep and relies on
// Parallel's built-in divergence check: any difference in virtual
// time, drive count or drive digest between a parallel leg and the
// sequential reference returns an error.
func TestParallelSweepInvariant(t *testing.T) {
	cfg := ParallelConfig{
		Workers:   []int{0, 2, 4},
		Fanout:    8,
		Rounds:    6,
		WorkIters: 200,
		Service:   200 * time.Microsecond,
		SkipTable: true,
	}
	rows, _, err := Parallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Virt != 60_000_000 || r.Drives != 96 || r.Digest != 0xc3d5d84ec964de8f {
			t.Errorf("%s: virtual %d, drives %d, digest %016x; want the pinned 60000000, 96, c3d5d84ec964de8f",
				r.Mode, r.Virt, r.Drives, uint64(r.Digest))
		}
	}
	var parRounds int64
	for _, r := range rows[1:] {
		parRounds += r.ParRounds
	}
	if parRounds == 0 {
		t.Fatal("parallel legs never dispatched a round")
	}
}
