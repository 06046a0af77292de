// Component extraction and adoption: the state-transfer half of live
// migration. At a drained step barrier every inter-subsystem channel
// is provably empty, so a local CaptureNow is a degenerate
// Chandy-Lamport cut — the only "in-flight" state is the undelivered
// events already absorbed into the component's inbox, and those travel
// inside the image.
package snapshot

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/vtime"
)

// WireEvent is the form in which one undelivered inbox event crosses a
// node boundary: event.Event with its Kind as a plain integer.
type WireEvent struct {
	Time      vtime.Time
	Seq       uint64
	Kind      uint8
	Component string
	Port      string
	Net       string
	Value     any
	Source    string
}

// NetState is the sampling state (LastValue et al.) of one net the
// component connects to, carried so re-homed fragments answer Read
// exactly as the source's would have.
type NetState struct {
	Net    string
	Value  any
	Time   vtime.Time
	Source string
}

// ComponentImage is one component's complete migratable state: the
// behaviour state plus scheduler bookkeeping from the checkpoint
// image, the undelivered inbox in wire form, and the sampling state of
// every net the component touches. It is self-contained and
// gob-encodable (given the payload types are gob-registered).
type ComponentImage struct {
	Component string
	LocalTime vtime.Time
	Runlevel  string
	Live      bool
	EOF       bool
	State     []byte
	Inbox     []WireEvent
	MemData   map[uint32]uint64
	Nets      []NetState
}

// Encode serializes the image for transfer.
func (ci *ComponentImage) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ci); err != nil {
		return nil, fmt.Errorf("snapshot: encode image of %s: %w", ci.Component, err)
	}
	return buf.Bytes(), nil
}

// DecodeComponentImage parses an image produced by Encode.
func DecodeComponentImage(b []byte) (*ComponentImage, error) {
	var ci ComponentImage
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ci); err != nil {
		return nil, fmt.Errorf("snapshot: decode component image: %w", err)
	}
	return &ci, nil
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
	ci := &ComponentImage{
		Component: img.Component,
		LocalTime: img.LocalTime,
		Runlevel:  img.Runlevel,
		Live:      img.Live,
		EOF:       img.EOF,
		State:     img.State,
		MemData:   img.MemData,
	}
	for _, e := range img.Inbox {
		ci.Inbox = append(ci.Inbox, WireEvent{
			Time:      e.Time,
			Seq:       e.Seq,
			Kind:      uint8(e.Kind),
			Component: e.Component,
			Port:      e.Port,
			Net:       e.Net,
			Value:     e.Value,
			Source:    e.Source,
		})
	}
	c := sub.Component(comp)
	if c == nil {
		return nil, fmt.Errorf("snapshot: no component %q", comp)
	}
	for _, p := range c.Ports() {
		n := p.Net()
		if n == nil {
			continue
		}
		v, t, src := n.LastDrive()
		ci.Nets = append(ci.Nets, NetState{Net: n.Name, Value: v, Time: t, Source: src})
	}
	return ci, nil
}

// AdoptComponent restores a transferred image into the destination
// subsystem. The component must already exist there with the right
// behaviour, ports and net connections (the mesh rebuilds them from
// its blueprint); adoption supplies the state. Only legal between
// runs.
func AdoptComponent(sub *core.Subsystem, ci *ComponentImage) error {
	img := &core.Image{
		Component: ci.Component,
		LocalTime: ci.LocalTime,
		Runlevel:  ci.Runlevel,
		Live:      ci.Live,
		EOF:       ci.EOF,
		State:     ci.State,
		MemData:   ci.MemData,
	}
	for _, e := range ci.Inbox {
		img.Inbox = append(img.Inbox, event.Event{
			Time:      e.Time,
			Seq:       e.Seq,
			Kind:      event.Kind(e.Kind),
			Component: e.Component,
			Port:      e.Port,
			Net:       e.Net,
			Value:     e.Value,
			Source:    e.Source,
		})
	}
	if err := sub.RestoreComponentImage(img); err != nil {
		return err
	}
	for _, ns := range ci.Nets {
		if n := sub.Net(ns.Net); n != nil {
			n.RestoreLastDrive(ns.Value, ns.Time, ns.Source)
		}
	}
	return nil
}
