package channel

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// refUnacked is the echo cap as it was before egress was kept in runs:
// one record per outgoing drive, every record read by every bound. The
// run list must be indistinguishable from it.
type refUnacked struct {
	grants []grantRec
	recs   []refRec
}

type refRec struct {
	seq     uint64
	arrival vtime.Time
}

func (r *refUnacked) bound(lookahead vtime.Duration) vtime.Time {
	best := vtime.Time(0)
	for _, g := range r.grants {
		cand := g.val
		for _, rec := range r.recs {
			if rec.seq <= g.ack {
				continue
			}
			if echo := rec.arrival.Add(lookahead); echo < cand {
				cand = echo
			}
		}
		if cand > best {
			best = cand
		}
	}
	return best
}

func (r *refUnacked) addGrant(val vtime.Time, ack uint64) {
	kept := r.grants[:0]
	dominated := false
	for _, g := range r.grants {
		if g.val <= val && g.ack <= ack {
			continue
		}
		if g.val >= val && g.ack >= ack {
			dominated = true
		}
		kept = append(kept, g)
	}
	r.grants = kept
	if !dominated {
		r.grants = append(r.grants, grantRec{val: val, ack: ack})
	}
	minAck := ^uint64(0)
	for _, g := range r.grants {
		if g.ack < minAck {
			minAck = g.ack
		}
	}
	keptE := r.recs[:0]
	for _, rec := range r.recs {
		if rec.seq > minAck {
			keptE = append(keptE, rec)
		}
	}
	r.recs = keptE
}

// unackedLen is how many drives the run list still tracks.
func unackedLen(ep *Endpoint) (n uint64) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for _, r := range ep.st.unacked {
		n += r.n
	}
	return n
}

// TestUnackedRunsMatchPerMessageRecords drives seeded random egress —
// bursts at a fixed spacing, payload sizes that change the link's
// stride, idle gaps, asks that take a sequence number between two
// drives — and random grants whose acks land anywhere, inside runs
// included, through the endpoint and through the per-message reference,
// and requires the same Bound after every step and the same drives
// still tracked after every grant.
func TestUnackedRunsMatchPerMessageRecords(t *testing.T) {
	link := LinkModel{Latency: 7, PerMessage: 3, BytesPerSecond: 1 << 28}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := &fakeBatchTr{}
		ep, err := NewHub(core.NewSubsystem("ss1")).NewEndpoint("peer", Conservative, link, tr)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refUnacked{}
		seen := 0 // flushed batches already mirrored into ref
		mirror := func() {
			ep.Flush()
			batches := tr.snapshot()
			for _, b := range batches[seen:] {
				for _, m := range b {
					if m.Kind == KindData {
						ref.recs = append(ref.recs, refRec{seq: m.Seq, arrival: m.Time})
					}
				}
			}
			seen = len(batches)
		}
		check := func(step int, what string) {
			t.Helper()
			if got, want := ep.Bound(), ref.bound(link.Lookahead()); got != want {
				t.Fatalf("seed %d step %d (%s): Bound %v, per-message reference %v", seed, step, what, got, want)
			}
			if got, want := unackedLen(ep), uint64(len(ref.recs)); got != want {
				t.Fatalf("seed %d step %d (%s): runs track %d drives, reference %d", seed, step, what, got, want)
			}
		}
		now := vtime.Time(0)
		for step := 0; step < 300; step++ {
			switch k := rng.Intn(10); {
			case k < 5: // a burst at one spacing and one size
				gap := vtime.Duration(rng.Intn(40))
				var v any = signal.Word(uint32(step))
				if rng.Intn(3) == 0 {
					v = make(signal.Packet, 1+rng.Intn(2048))
				}
				for i, n := 0, 1+rng.Intn(40); i < n; i++ {
					now = now.Add(gap)
					ep.egress("link", &core.Msg{Sent: now, Value: v, Source: "prod"})
				}
				mirror()
				check(step, "burst")
			case k < 6: // idle
				now = now.Add(vtime.Duration(rng.Intn(100_000)))
			case k < 7: // an ask takes the next sequence number
				ep.Request(now.Add(vtime.Duration(1 + step)))
				mirror()
				check(step, "ask")
			default: // a grant: any value, an ack anywhere up to what was sent
				val := vtime.Time(rng.Int63n(int64(now) + 1000))
				ack := uint64(rng.Int63n(ep.SentCount() + 1))
				ep.mu.Lock()
				ep.st.addGrant(val, ack)
				ep.mu.Unlock()
				ref.addGrant(val, ack)
				check(step, "grant")
			}
		}
		ep.ResetProtocol()
		ref = &refUnacked{}
		check(300, "ResetProtocol")
	}
}

// TestPageBurstIsOneUnackedRun: a page of word drives leaving at the
// link's serialization spacing with no grant coming back — remote_word's
// modem side — is tracked as one record, not one per word.
func TestPageBurstIsOneUnackedRun(t *testing.T) {
	const words = 16_897
	ep, _ := coalescingEndpoint(t, DefaultCoalesce)
	for i := 0; i < words; i++ {
		drive(ep, 3*i)
	}
	ep.mu.Lock()
	runs, grown := len(ep.st.unacked), cap(ep.st.unacked)
	ep.mu.Unlock()
	if runs != 1 || grown > 4 {
		t.Fatalf("a %d-word burst is %d unacked runs (capacity %d), want 1", words, runs, grown)
	}
	if got := unackedLen(ep); got != words {
		t.Fatalf("the run tracks %d drives, want %d", got, words)
	}
}
