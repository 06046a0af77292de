package core_test

import (
	"repro/internal/core"
	"repro/internal/snapshot"
)

// The wire row of TestRestoreImageRule's caller table: what
// mesh's extract and applyEpoch do with an extracted image. The image
// layout decodes an empty State as nil, which the restore rule must not
// notice.
func init() {
	core.WireRestore = func(s *core.Subsystem, img *core.Image) error {
		b, err := (&snapshot.ComponentImage{Image: *img}).Encode()
		if err != nil {
			return err
		}
		ci, err := snapshot.DecodeComponentImage(b)
		if err != nil {
			return err
		}
		return snapshot.AdoptComponent(s, ci)
	}
}
