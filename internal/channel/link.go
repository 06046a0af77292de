package channel

import (
	"fmt"

	"repro/internal/vtime"
)

// LinkModel charges virtual time for traffic crossing a channel. It
// is what makes the paper's word-passage vs packet-passage experiment
// meaningful: every message pays the fixed per-message overhead and
// the latency, so moving the same bytes as many four-byte words costs
// far more virtual (and wall-clock) time than as 1 KB packets.
type LinkModel struct {
	// Latency is the one-way propagation delay.
	Latency vtime.Duration
	// BytesPerSecond is the serialization bandwidth; 0 means
	// infinite (no per-byte cost).
	BytesPerSecond int64
	// PerMessage is a fixed protocol overhead charged per message
	// (packetization, framing, RPC dispatch).
	PerMessage vtime.Duration
}

// Validate reports configuration errors for a conservative channel,
// which requires strictly positive lookahead.
func (lm LinkModel) Validate(conservative bool) error {
	if lm.Latency < 0 || lm.PerMessage < 0 || lm.BytesPerSecond < 0 {
		return fmt.Errorf("channel: negative link parameter %+v", lm)
	}
	if conservative && lm.Lookahead() <= 0 {
		return fmt.Errorf("channel: conservative channel requires positive lookahead (latency or per-message overhead)")
	}
	return nil
}

// transferTime is the serialization time for size payload bytes.
func (lm LinkModel) transferTime(size int) vtime.Duration {
	d := lm.PerMessage
	if lm.BytesPerSecond > 0 {
		d += vtime.Duration(int64(size) * int64(vtime.Second) / lm.BytesPerSecond)
	}
	return d
}

// Lookahead is the minimum virtual time between a send decision and
// the earliest possible arrival at the peer — the quantity the
// safe-time protocol adds to every grant.
func (lm LinkModel) Lookahead() vtime.Duration {
	return lm.Latency + lm.PerMessage
}

// arrival computes when a message sent at virtual time sent with the
// given payload size arrives at the peer, given that the link is busy
// until busyUntil (channel serialization: one message at a time). It
// returns the arrival time and the new busy horizon.
func (lm LinkModel) arrival(sent vtime.Time, size int, busyUntil vtime.Time) (arrive, newBusy vtime.Time) {
	start := vtime.Max(sent, busyUntil)
	newBusy = start.Add(lm.transferTime(size))
	arrive = newBusy.Add(lm.Latency)
	return arrive, newBusy
}

// Common link characterizations used by the examples and benchmarks.
var (
	// LoopbackLink approximates same-host IPC between subsystems.
	LoopbackLink = LinkModel{
		Latency:        50 * vtime.Microsecond,
		BytesPerSecond: 100 << 20, // 100 MB/s
		PerMessage:     20 * vtime.Microsecond,
	}

	// LANLink approximates two workstations on one subnet, the
	// paper's actual testbed.
	LANLink = LinkModel{
		Latency:        300 * vtime.Microsecond,
		BytesPerSecond: 1 << 20, // ~10 Mbit Ethernet
		PerMessage:     200 * vtime.Microsecond,
	}
)
