// Benchmarks regenerating the paper's evaluation: one benchmark per
// Table 1 row and per figure scenario, plus the ablations DESIGN.md
// calls out. Run them all with
//
//	go test -bench=. -benchmem
//
// Absolute numbers will not match a 1998 testbed (Java RMI between
// 200 MHz workstations); the shape — who wins, by what factor — is
// what these reproduce. cmd/piabench prints the same data as tables.
package pia_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/vtime"
)

// benchPage keeps the full paper-size page for Table 1 rows.
var benchPage = experiments.Table1Config{PageSize: 66 * 1024, Images: 4}

func reportRow(b *testing.B, row experiments.Table1Row, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(row.Wall.Nanoseconds()), "wall-ns/load")
	b.ReportMetric(float64(row.Virt), "virtual-ns/load")
	b.ReportMetric(float64(row.Drives), "link-drives")
	if row.FramesOut > 0 {
		b.ReportMetric(float64(row.FramesOut), "wire-frames")
		b.ReportMetric(float64(row.WireBytesOut), "wire-bytes")
	}
}

func BenchmarkTable1_NativeHotJava(b *testing.B) {
	var last experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.Native(benchPage)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRow(b, last, err)
}

func BenchmarkTable1_LocalWord(b *testing.B) {
	var last experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.Local(benchPage, "wordLevel")
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRow(b, last, err)
}

func BenchmarkTable1_LocalPacket(b *testing.B) {
	var last experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.Local(benchPage, "packetLevel")
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRow(b, last, err)
}

func BenchmarkTable1_RemoteWord(b *testing.B) {
	var last experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.Remote(benchPage, "wordLevel")
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRow(b, last, err)
}

func BenchmarkTable1_RemotePacket(b *testing.B) {
	var last experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.Remote(benchPage, "packetLevel")
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRow(b, last, err)
}

func BenchmarkFig1_MultiNodeWithRemoteHardware(b *testing.B) {
	var irqs int64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		irqs = res.HWInterrupts
	}
	b.ReportMetric(float64(irqs), "hw-interrupts")
}

func BenchmarkFig2_NetSplit(b *testing.B) {
	crossing := 0
	for i := 0; i < b.N; i++ {
		splits, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		crossing = 0
		for _, s := range splits {
			if s.Crossing {
				crossing++
			}
		}
	}
	b.ReportMetric(float64(crossing), "crossing-nets")
}

func BenchmarkFig3_StallVsOptimistic(b *testing.B) {
	var stalls, restores int64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(20, 5000)
		if err != nil {
			b.Fatal(err)
		}
		stalls = rows[0].Stalls
		restores = rows[1].Restores
	}
	b.ReportMetric(float64(stalls), "conservative-stalls")
	b.ReportMetric(float64(restores), "optimistic-restores")
}

func BenchmarkFig4_SafeTimes(b *testing.B) {
	var asks int64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(10)
		if err != nil {
			b.Fatal(err)
		}
		asks = res.AsksToSS2 + res.AsksToSS3
	}
	b.ReportMetric(float64(asks), "asks")
}

func BenchmarkFig5Fig6_WubbleUBuild(b *testing.B) {
	// Figs. 5 and 6 are structural: the module graph and its mapping
	// onto the remote architecture. The bench measures building it.
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(); err != nil { // builds the Fig 6 architecture
			b.Fatal(err)
		}
	}
}

func BenchmarkRunlevelSwitch(b *testing.B) {
	var rows []experiments.SwitchpointResult
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunlevelSwitch(16 * 1024)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Wall.Nanoseconds()), r.Mode+"-wall-ns")
	}
}

func BenchmarkChannelPolicy(b *testing.B) {
	var rows []experiments.PolicyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.PolicySweep(20, 5000, []vtime.Duration{50, 1000})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		_ = r
	}
}

func BenchmarkCheckpointInterval(b *testing.B) {
	var rows []experiments.CheckpointRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.CheckpointInterval(5000, []vtime.Duration{10, 1000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].ReplaySteps), "replay-steps-fine")
	b.ReportMetric(float64(rows[1].ReplaySteps), "replay-steps-coarse")
}

func BenchmarkIncrementalCheckpoint(b *testing.B) {
	var rows []experiments.IncrementalRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.IncrementalCheckpoint(128, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].TotalBytes), "full-bytes")
	b.ReportMetric(float64(rows[1].TotalBytes), "incremental-bytes")
}

func BenchmarkSnapshot(b *testing.B) {
	var rows []experiments.SnapshotRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.SnapshotScale([]int{4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Wall.Nanoseconds()), "snapshot-wall-ns")
}

func BenchmarkMemsync(b *testing.B) {
	var rows []experiments.MemsyncRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Memsync(500, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[1].Violations), "violations")
	b.ReportMetric(float64(rows[1].Restores), "restores")
}
