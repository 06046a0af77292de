// Component extraction and adoption: the state-transfer half of live
// migration. At a drained step barrier every inter-subsystem channel
// is provably empty, so a local CaptureNow is a degenerate
// Chandy-Lamport cut — the only "in-flight" state is the undelivered
// events already absorbed into the component's inbox, and those travel
// inside the image.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// ComponentImage is one component's complete migratable state: its
// checkpoint image (behaviour state, scheduler bookkeeping and the
// undelivered inbox) plus the sampling state of every net the
// component touches.
type ComponentImage struct {
	core.Image
	Nets []core.NetImage
}

// The image layout. Every field of core.Image, event.Event and
// core.NetImage is written, in order:
//
//	u8      imageVersion
//	string  Component, varint LocalTime, string Runlevel
//	u8      flags: bit 0 Live, bit 1 EOF, bit 2 Shared
//	string  State
//	uvarint n, n x inbox row: varint Time, uvarint Seq, u8 Kind,
//	        string Component, Port and Net, value Value, string Source
//	uvarint n, n x memory word: uvarint Addr, uvarint Data (ascending)
//	uvarint n, n x net: string Net, value Value, varint Time, string Source
//
// A string is a uvarint length and its bytes; a value is a string
// holding one channel.AppendValue encoding, so what can migrate is
// exactly what can cross a channel. Each length is read under a named
// cap below. An unknown version, event kind or flag bit, an address out
// of range or order, and trailing bytes are errors. Empty State, Inbox,
// MemData and Nets decode as nil.
const (
	imageVersion byte = 1

	maxName     = 1 << 10  // a component, runlevel, port, net or source name
	maxState    = 32 << 20 // behaviour state bytes
	maxInbox    = 1 << 20  // inbox rows
	maxMemWords = 1 << 24  // memory words
	maxNets     = 1 << 12  // nets
	maxValue    = 32 << 20 // one encoded value
	inboxRowMin = 9        // the fewest bytes an inbox row takes
	memWordMin  = 2        // a memory word
	netMin      = 5        // a net
)

// Encode serializes the image for transfer: equal images encode to
// equal bytes. A value whose type has no channel codec fails here, at
// the source, naming the type.
func (ci *ComponentImage) Encode() (b []byte, err error) {
	b = []byte{imageVersion}
	var val []byte
	value := func(v any) {
		var verr error
		if val, verr = channel.AppendValue(val[:0], v); err == nil {
			err = verr
		}
		b = wire.AppendString(b, val)
	}
	b = wire.AppendString(binary.AppendVarint(wire.AppendString(b, ci.Component), int64(ci.LocalTime)), ci.Runlevel)
	flags := byte(0)
	for i, set := range []bool{ci.Live, ci.EOF, ci.Shared} {
		if set {
			flags |= 1 << i
		}
	}
	b = append(b, flags)
	b = wire.AppendString(b, ci.State)
	b = binary.AppendUvarint(b, uint64(len(ci.Inbox)))
	for _, e := range ci.Inbox {
		b = append(binary.AppendUvarint(binary.AppendVarint(b, int64(e.Time)), e.Seq), byte(e.Kind))
		b = wire.AppendString(wire.AppendString(wire.AppendString(b, e.Component), e.Port), e.Net)
		value(e.Value)
		b = wire.AppendString(b, e.Source)
	}
	addrs := make([]uint32, 0, len(ci.MemData))
	for a := range ci.MemData {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	b = binary.AppendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(a)), ci.MemData[a])
	}
	b = binary.AppendUvarint(b, uint64(len(ci.Nets)))
	for _, n := range ci.Nets {
		b = wire.AppendString(b, n.Net)
		value(n.Value)
		b = wire.AppendString(binary.AppendVarint(b, int64(n.Time)), n.Source)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode image of %s: %w", ci.Component, err)
	}
	return b, nil
}

// DecodeComponentImage parses an image produced by Encode. The bytes
// come from a peer: every length is checked against what is left and
// its cap before anything is allocated, and nothing decoded aliases b.
func DecodeComponentImage(b []byte) (*ComponentImage, error) {
	f := wire.ReadFields(b)
	if v := f.Byte(); v != imageVersion {
		f.Failf("unknown image version %d", v)
	}
	d := channel.NewBatchDecoder()
	value := func() any { // decoded where it lies: DecodeValue copies what it keeps
		v, err := d.DecodeValue(f.View(f.Uvarint(), maxValue))
		if err != nil {
			f.Failf("%w", err)
		}
		return v
	}
	ci := &ComponentImage{}
	ci.Component, ci.LocalTime, ci.Runlevel = f.String(maxName), vtime.Time(f.Varint()), f.String(maxName)
	if flags := f.Byte(); flags > 7 {
		f.Failf("unknown image flags %#x", flags)
	} else {
		ci.Live, ci.EOF, ci.Shared = flags&1 != 0, flags&2 != 0, flags&4 != 0
	}
	if s := f.View(f.Uvarint(), maxState); len(s) > 0 {
		ci.State = bytes.Clone(s)
	}
	if n := f.Len(maxInbox, inboxRowMin); n > 0 {
		ci.Inbox = make([]event.Event, n)
	}
	for i := range ci.Inbox {
		e := &ci.Inbox[i]
		e.Time, e.Seq, e.Kind = vtime.Time(f.Varint()), f.Uvarint(), event.Kind(f.Byte())
		if e.Kind > event.KindControl {
			f.Failf("unknown event kind %d", e.Kind)
		}
		e.Component, e.Port, e.Net = f.String(maxName), f.String(maxName), f.String(maxName)
		e.Value, e.Source = value(), f.String(maxName)
	}
	if n := f.Len(maxMemWords, memWordMin); n > 0 {
		ci.MemData = make(map[uint32]uint64)
		next := uint64(0) // the lowest address the next word may have
		for range n {
			a := f.Uvarint()
			if a < next || a > math.MaxUint32 {
				f.Failf("memory address %#x out of order or range", a)
				break
			}
			ci.MemData[uint32(a)], next = f.Uvarint(), a+1
		}
	}
	if n := f.Len(maxNets, netMin); n > 0 {
		ci.Nets = make([]core.NetImage, n)
	}
	for i := range ci.Nets {
		n := &ci.Nets[i]
		n.Net, n.Value, n.Time, n.Source = f.String(maxName), value(), vtime.Time(f.Varint()), f.String(maxName)
	}
	if err := f.Done(); err != nil {
		return nil, fmt.Errorf("snapshot: decode component image: %w", err)
	}
	return ci, nil
}

// ExtractComponent captures the subsystem (tagged, deduplicated) and
// lifts the named component's state out of the checkpoint into a
// transferable image. Only legal between runs, at a point where no
// message for the component is in flight on any channel — the mesh's
// drained step barrier guarantees exactly that.
func ExtractComponent(sub *core.Subsystem, tag, comp string) (*ComponentImage, error) {
	cs, err := sub.CaptureNow(tag)
	if err != nil {
		return nil, fmt.Errorf("snapshot: capture for migration of %s: %w", comp, err)
	}
	if cs == nil { // tag already captured (duplicate request)
		cs = sub.CheckpointByTag(tag)
	}
	if cs == nil {
		return nil, fmt.Errorf("snapshot: no checkpoint for tag %q", tag)
	}
	img := cs.Image(comp)
	if img == nil {
		return nil, fmt.Errorf("snapshot: checkpoint has no image for %q", comp)
	}
	c := sub.Component(comp)
	if c == nil {
		return nil, fmt.Errorf("snapshot: no component %q", comp)
	}
	ci := &ComponentImage{Image: *img}
	for _, p := range c.Ports() {
		if n := p.Net(); n != nil {
			ci.Nets = append(ci.Nets, n.Image())
		}
	}
	return ci, nil
}

// AdoptComponent restores a transferred image into the destination
// subsystem. The component must already exist there with the right
// behaviour, ports and net connections (the mesh makes them by
// running the system's description again); adoption supplies the
// state. Only legal between runs.
func AdoptComponent(sub *core.Subsystem, ci *ComponentImage) error {
	if err := sub.RestoreComponentImage(&ci.Image); err != nil {
		return err
	}
	sub.RestoreNets(ci.Nets)
	return nil
}
