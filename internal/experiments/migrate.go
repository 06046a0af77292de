// The live-migration experiment: the mesh demo workload on three
// members, run stationary, with a mid-run migration of the hot
// component, and with the same migration while faultnet mangles the
// data plane. The paper-level claim is zero virtual downtime and
// bit-identical drive digests across all three legs; the measured
// quantities are the wall-clock migration cost and the placement
// epoch propagation latency.
package experiments

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/faultnet"
	"repro/internal/mesh"
	"repro/internal/node"
	"repro/internal/resilience"
	"repro/internal/vtime"
)

// MigrateConfig shapes the migration experiment.
type MigrateConfig struct {
	// Seed drives the chaos leg's fault schedules (per-member offsets
	// keep the three schedules distinct but reproducible).
	Seed int64
	// Values/Sinks/Period override the demo workload defaults when
	// non-zero.
	Values int
	Sinks  int
	Period vtime.Duration
	// At is the virtual time of the migration (rounded up to the next
	// held barrier). Zero means 60ms.
	At vtime.Time
	// Step is the lock-step round length. Zero means 25ms.
	Step vtime.Duration
}

func (c MigrateConfig) withDefaults() MigrateConfig {
	if c.At == 0 {
		c.At = vtime.Time(60 * vtime.Millisecond)
	}
	if c.Step == 0 {
		c.Step = 25 * vtime.Millisecond
	}
	return c
}

// MigrateRow is one leg of the migration experiment.
type MigrateRow struct {
	Mode     string        `json:"mode"`
	Wall     time.Duration `json:"wall_ns"`
	Rounds   int64         `json:"rounds"`
	Reissues int64         `json:"reissues"`
	// Migrations counts completed live migrations in the leg.
	Migrations int64  `json:"migrations"`
	Epoch      uint64 `json:"epoch"`
	// VirtualDowntime is how long, in virtual time, the migrated
	// component was unavailable: zero by construction, recorded to
	// assert it.
	VirtualDowntime vtime.Duration `json:"virtual_downtime_ns"`
	// MigrationWall is the wall-clock span of the migration, prepare
	// order to final dial ack.
	MigrationWall time.Duration `json:"migration_wall_ns"`
	// EpochPropagation is the wall clock from the placement-epoch
	// broadcast to its final ack across the mesh.
	EpochPropagation time.Duration `json:"epoch_propagation_ns"`
	// DigestsMatch reports bit-identity with the stationary leg (true
	// on the reference itself).
	DigestsMatch bool `json:"digests_match"`
	// Digests is the union of per-component drive digests across the
	// mesh at the end of the leg.
	Digests map[string]hexDigest `json:"digests"`
}

// migrateMembers is the fixed member set; "alpha" (the smallest name)
// leads, hot starts there, and the migration moves it to "bravo".
var migrateMembers = []string{"alpha", "bravo", "charlie"}

// Migrate runs the three legs and checks the equivalence invariant.
// A digest divergence is returned as an error: it means migration is
// observable in virtual time, which the design forbids.
func Migrate(cfg MigrateConfig) ([]MigrateRow, error) {
	cfg = cfg.withDefaults()
	p := mesh.DemoParams{
		Members: migrateMembers,
		Values:  cfg.Values,
		Sinks:   cfg.Sinks,
		Period:  cfg.Period,
	}

	ref, err := migrateLeg("stationary", p, cfg, nil, false)
	if err != nil {
		return nil, err
	}
	ref.DigestsMatch = true
	mig, err := migrateLeg("migrated", p, cfg, nil, true)
	if err != nil {
		return nil, err
	}
	chaos, err := migrateLeg("chaos+migrated", p, cfg, chaosNodes(cfg.Seed), true)
	if err != nil {
		return nil, err
	}

	rows := []MigrateRow{ref, mig, chaos}
	for i := 1; i < len(rows); i++ {
		rows[i].DigestsMatch = maps.Equal(ref.Digests, rows[i].Digests)
		if !rows[i].DigestsMatch {
			return rows, fmt.Errorf("migrate: %s leg diverged from the stationary reference: %v vs %v",
				rows[i].Mode, rows[i].Digests, ref.Digests)
		}
	}
	return rows, nil
}

// migrateLeg runs one full mesh run of the demo workload in-process
// and collects the leader's control-plane stats plus the merged
// digests.
func migrateLeg(mode string, p mesh.DemoParams, cfg MigrateConfig, tune func(i int, mc *mesh.Config), migrate bool) (MigrateRow, error) {
	row := MigrateRow{Mode: mode}
	bp, err := mesh.DemoBlueprint(p)
	if err != nil {
		return row, err
	}
	start := time.Now()
	lm, err := mesh.StartLocalMesh(bp, p.Members, tune)
	if err != nil {
		return row, err
	}
	defer lm.Close()
	if migrate {
		if err := lm.Leader().MigrateAt(cfg.At, "hot", p.Members[1]); err != nil {
			return row, err
		}
	}
	if err := lm.Run(p.Horizon(), cfg.Step); err != nil {
		return row, err
	}
	row.Wall = time.Since(start)
	st := lm.Leader().Stats()
	row.Rounds = st.Rounds
	row.Reissues = st.Reissues
	row.Migrations = st.Migrations
	row.Epoch = st.Epoch
	row.VirtualDowntime = st.MigrationVirtual
	row.MigrationWall = st.MigrationWall
	row.EpochPropagation = st.EpochPropagation
	row.Digests = make(map[string]hexDigest)
	for comp, d := range lm.Digests() {
		row.Digests[comp] = hexDigest(d)
	}
	return row, nil
}

// chaosNodes shapes every member's data plane with seeded faults and
// recovers it with resilient sessions; the control plane stays on
// plain TCP, like a management network.
func chaosNodes(seed int64) func(i int, mc *mesh.Config) {
	return func(i int, mc *mesh.Config) {
		n := node.New(mc.Name)
		n.SetFaults(faultnet.Config{
			Seed:        seed + int64(i),
			Jitter:      200 * time.Microsecond,
			DropProb:    0.03,
			DupProb:     0.02,
			ReorderProb: 0.02,
		})
		n.SetResilience(resilience.Config{
			Heartbeat: 20 * time.Millisecond,
			RetryBase: 2 * time.Millisecond,
			RetryCap:  50 * time.Millisecond,
			RetryMax:  40,
		})
		mc.Node = n
	}
}
