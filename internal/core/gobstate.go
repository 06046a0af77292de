package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
)

// GobSave encodes v with gob; a convenience for StateSaver
// implementations whose state is an exported-field struct.
func GobSave(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobRestore decodes data (produced by GobSave) into v, which must be
// a pointer to the same type. The target is zeroed first: gob omits
// zero-valued fields on encode, so decoding into a dirty struct would
// otherwise leave stale state behind — fatal for rollback.
func GobRestore(v any, data []byte) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("core: GobRestore target must be a non-nil pointer, got %T", v)
	}
	rv.Elem().Set(reflect.Zero(rv.Elem().Type()))
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
