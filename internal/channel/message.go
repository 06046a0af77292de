// Package channel implements the inter-subsystem channels of the Pia
// distributed co-simulation framework: the FIFO message streams that
// bridge split nets, the conservative safe-time protocol, optimistic
// channels with straggler-triggered rollback, the link model that
// charges virtual time for cross-channel traffic, and the marks used
// by Chandy-Lamport distributed snapshots.
//
// # Safe-time protocol
//
// Each conservative endpoint acts as a core.Gate on its subsystem:
// the scheduler may not advance to time t until the peer has granted
// a safe time >= t. The protocol — asks, grants solicited by them and
// computed with the asker's restrictions removed, the echo cap,
// departures — is one value with no lock, clock or transport, safeTime
// (safetime.go); DESIGN.md §5b states its rules and the invariants its
// model test checks. Conservative channels need positive lookahead, as
// any real link has.
package channel

import (
	"fmt"

	"repro/internal/signal"
	"repro/internal/vtime"
)

// msgKind classifies channel messages.
type msgKind uint8

const (
	// KindData carries a net value change across the channel.
	KindData msgKind = iota
	// kindSafeTimeReq asks the peer to grant a safe time.
	kindSafeTimeReq
	// kindSafeTimeGrant promises the receiver that the sender will
	// never transmit data with a timestamp below Grant.
	kindSafeTimeGrant
	// kindMark is a Chandy-Lamport snapshot marker.
	kindMark
	// kindRestore orders a coordinated restore to a snapshot tag.
	kindRestore
	// KindClose announces that the sender has finished and will
	// never send again (equivalent to a grant of Infinity).
	KindClose
)

func (k msgKind) String() string {
	switch k {
	case KindData:
		return "data"
	case kindSafeTimeReq:
		return "safetime-req"
	case kindSafeTimeGrant:
		return "safetime-grant"
	case kindMark:
		return "mark"
	case kindRestore:
		return "restore"
	case KindClose:
		return "close"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one unit on a channel. Channels are FIFO: Seq increases
// by one per message per direction, and receivers verify it.
type Message struct {
	Kind msgKind
	From string // sending subsystem
	Seq  uint64

	// Data fields.
	Net    string     // destination net, in the receiver's namespace
	Source string     // driving component
	Time   vtime.Time // arrival in virtual time (link model applied)
	Value  any

	// Safe-time fields. Ack piggybacks on every message: the highest
	// sequence number from the receiver that the sender had processed
	// when it sent this. Messages beyond Ack are still "in flight"
	// from the sender's point of view and bound its earliest possible
	// reaction.
	Ask   vtime.Time
	Grant vtime.Time
	Ack   uint64

	// Snapshot tag for marks and restores.
	Tag string
}

func (m Message) String() string {
	switch m.Kind {
	case KindData:
		return fmt.Sprintf("data(%s @%v %s=%s)", m.From, m.Time, m.Net, signal.String(m.Value))
	case kindSafeTimeReq:
		return fmt.Sprintf("ask(%s -> %v)", m.From, m.Ask)
	case kindSafeTimeGrant:
		return fmt.Sprintf("grant(%s -> %v)", m.From, m.Grant)
	case kindMark:
		return fmt.Sprintf("mark(%s tag=%s)", m.From, m.Tag)
	case kindRestore:
		return fmt.Sprintf("restore(%s tag=%s)", m.From, m.Tag)
	default:
		return m.Kind.String() + "(" + m.From + ")"
	}
}

// Transport moves batch frames to the peer endpoint, preserving order.
// An endpoint hands it every frame it flushes — a lone urgent message
// is a frame of one — as built: the wire header (wire.PutHeader), then
// the batch payload (codec.go). SendFrame must not block indefinitely
// on the caller's goroutine (the subsystem scheduler calls it), must
// not write into frame, and must not keep it: the endpoint builds the
// next frames in the same buffer.
type Transport interface {
	SendFrame(frame []byte) error
	Close() error
}
