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
)

// ComponentImage is one component's complete migratable state: its
// checkpoint image (behaviour state, scheduler bookkeeping and the
// undelivered inbox) plus the sampling state of every net the
// component touches. It is self-contained and gob-encodable (given the
// payload types are gob-registered).
type ComponentImage struct {
	core.Image
	Nets []core.NetImage
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
// behaviour, ports and net connections (the mesh rebuilds them from
// its blueprint); adoption supplies the state. Only legal between
// runs.
func AdoptComponent(sub *core.Subsystem, ci *ComponentImage) error {
	if err := sub.RestoreComponentImage(&ci.Image); err != nil {
		return err
	}
	sub.RestoreNets(ci.Nets)
	return nil
}
