package experiments

import (
	"slices"
	"testing"

	"repro/internal/vtime"
)

func smallTable1() Table1Config { return Table1Config{PageSize: 8 * 1024, Images: 2} }

func TestNative(t *testing.T) {
	row, err := Native(smallTable1())
	if err != nil {
		t.Fatal(err)
	}
	if row.Wall <= 0 || row.Location != "N/A" {
		t.Fatalf("native row %+v", row)
	}
}

func TestLocalLevels(t *testing.T) {
	word, err := Local(smallTable1(), "wordLevel")
	if err != nil {
		t.Fatal(err)
	}
	packet, err := Local(smallTable1(), "packetLevel")
	if err != nil {
		t.Fatal(err)
	}
	if word.Drives <= packet.Drives {
		t.Fatalf("word drives %d <= packet drives %d", word.Drives, packet.Drives)
	}
	if word.Virt <= packet.Virt {
		t.Fatalf("word virtual time %v <= packet %v", word.Virt, packet.Virt)
	}
}

func TestRemoteLevel(t *testing.T) {
	row, err := Remote(smallTable1(), "packetLevel")
	if err != nil {
		t.Fatal(err)
	}
	if row.Location != "remote" || row.Drives == 0 {
		t.Fatalf("remote row %+v", row)
	}
}

// TestTable1ShapeSmall holds Table 1's shape to what the program
// determines: word passage costs more virtual time and far more DMA
// drives than packet passage, at both locations. The wall-clock shape
// (native fastest, word slower than packet, remote slower than local)
// is what piabench -exp table1 prints and EXPERIMENTS.md records; on a
// loaded host it measures the load as much as the program. Wire frames
// are no stand-in: egress coalescing leaves a word page in as few
// frames as a packet page, the count varying run to run.
func TestTable1ShapeSmall(t *testing.T) {
	rows, err := Table1(Table1Config{PageSize: 16 * 1024, Images: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Location+"/"+r.Level] = r
	}
	for _, loc := range []string{"local", "remote"} {
		w, p := byName[loc+"/word passage"], byName[loc+"/packet passage"]
		if !(w.Virt > p.Virt && w.Drives > 10*p.Drives) {
			t.Errorf("%s word/packet virtual shape broken: %+v vs %+v", loc, w, p)
		}
	}
}

func TestFig3(t *testing.T) {
	rows, err := Fig3(10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	cons, opt := rows[0], rows[1]
	if cons.Policy != "conservative" || opt.Policy != "optimistic" {
		t.Fatalf("policies: %v / %v", cons.Policy, opt.Policy)
	}
	if cons.Restores != 0 {
		t.Fatal("conservative run restored")
	}
	if opt.Stragglers == 0 || opt.Restores == 0 {
		t.Fatalf("optimistic run saw no stragglers/restores: %+v", opt)
	}
}

func TestFig4(t *testing.T) {
	res, err := Fig4(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 10 {
		t.Fatalf("delivered %d, want 10", res.Delivered)
	}
	if res.AsksToSS2 == 0 || res.AsksToSS3 == 0 {
		t.Fatalf("SS1 did not ask both peers: %+v", res)
	}
	if res.GrantsFromSS2 == 0 || res.GrantsFromSS3 == 0 {
		t.Fatalf("SS1 did not receive grants from both peers: %+v", res)
	}
	if res.Violations {
		t.Fatal("causality violation in Fig 4 scenario")
	}
}

func TestFig2(t *testing.T) {
	splits, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	byNet := map[string]fig2Split{}
	for _, s := range splits {
		byNet[s.Net] = s
	}
	if !byNet["dma"].Crossing {
		t.Fatalf("dma net not crossing: %+v", byNet["dma"])
	}
	if byNet["radio"].Crossing || byNet["ink"].Crossing {
		t.Fatal("non-crossing nets reported as split")
	}
	if len(byNet["dma"].Fragments) != 2 {
		t.Fatalf("dma fragments: %v", byNet["dma"].Fragments)
	}
}

func TestFig1(t *testing.T) {
	res, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if res.Loads != 1 {
		t.Fatalf("loads = %d", res.Loads)
	}
	if res.HWInterrupts == 0 {
		t.Fatal("remote hardware raised no interrupts")
	}
}

func TestRunlevelSwitch(t *testing.T) {
	rows, err := RunlevelSwitch(8 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]SwitchpointResult{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	w, p, s := byMode["word"], byMode["packet"], byMode["switchpoint"]
	// The switched run does one word-level and one packet-level load.
	if !(s.Drives < w.Drives && s.Drives > p.Drives) {
		t.Fatalf("switchpoint drives %d not between packet %d and word %d", s.Drives, p.Drives, w.Drives)
	}
}

func TestPolicySweep(t *testing.T) {
	rows, err := PolicySweep(5, 1000, []vtime.Duration{50, 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
}

func TestCheckpointInterval(t *testing.T) {
	rows, err := CheckpointInterval(400, []vtime.Duration{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Pinned from the stand as it was before the system builder
	// described it.
	for i, want := range [][2]int64{{51, 241}, {5, 401}} {
		if rows[i].Checkpoints != want[0] || rows[i].ReplaySteps != want[1] {
			t.Errorf("interval %v: %d checkpoints, %d replay steps; want %d, %d",
				rows[i].Interval, rows[i].Checkpoints, rows[i].ReplaySteps, want[0], want[1])
		}
	}
	// More frequent checkpoints => more checkpoints, less replay.
	if rows[0].Checkpoints <= rows[1].Checkpoints {
		t.Fatalf("checkpoint counts not ordered: %+v", rows)
	}
	if rows[0].ReplaySteps > rows[1].ReplaySteps {
		t.Fatalf("replay steps not ordered: %+v", rows)
	}
}

// TestBursterStateRoundTrip: a burster's state restores to the fields
// it saved, and a state with a byte past its three fields, or one cut
// short, is refused.
func TestBursterStateRoundTrip(t *testing.T) {
	saved, err := (&burster{Next: 7, Count: 400, Period: -10}).SaveState()
	if err != nil {
		t.Fatal(err)
	}
	var got burster
	if err := got.RestoreState(saved); err != nil || got != (burster{Next: 7, Count: 400, Period: -10}) {
		t.Fatalf("restored %+v, %v", got, err)
	}
	for _, bad := range [][]byte{append(slices.Clone(saved), 0), saved[:len(saved)-1]} {
		if err := new(burster).RestoreState(bad); err == nil {
			t.Errorf("state % x restored without error", bad)
		}
	}
}

// TestIncrementalCheckpoint pins the stand's byte counts. Its states
// are laid out by their fields alone, so the counts do not depend on
// what the process encoded before: alone or after the whole suite, in
// this binary or in piabench, the totals are the same.
func TestIncrementalCheckpoint(t *testing.T) {
	rows, err := IncrementalCheckpoint(64, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []IncrementalRow{
		{Mode: "full", Checkpoints: 100, TotalBytes: 6_554_037},
		{Mode: "incremental", Checkpoints: 100, TotalBytes: 65_973},
	}
	if !slices.Equal(rows, want) {
		t.Errorf("rows %+v, want %+v", rows, want)
	}
}

func TestSnapshotScale(t *testing.T) {
	rows, err := SnapshotScale([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Subsystems != 2 || rows[1].Subsystems != 4 {
		t.Fatalf("rows %+v", rows)
	}
}

func TestMemsync(t *testing.T) {
	rows, err := Memsync(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]MemsyncRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	for mode, want := range map[string][3]int64{"static": {0, 0, 1}, "optimistic": {1, 1, 1}} {
		r := byMode[mode]
		if got := [3]int64{r.Violations, r.Restores, int64(r.SyncMarked)}; got != want {
			t.Errorf("%s: violations, restores, marked %v; want the pinned %v", mode, got, want)
		}
	}
	if byMode["static"].Violations != 0 || byMode["static"].Restores != 0 {
		t.Fatalf("static mode rolled back: %+v", byMode["static"])
	}
	if byMode["optimistic"].Violations == 0 || byMode["optimistic"].SyncMarked == 0 {
		t.Fatalf("optimistic mode detected nothing: %+v", byMode["optimistic"])
	}
}
