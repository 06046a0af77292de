package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
)

// Reactor is the reactive-component pattern: a behaviour that is a
// pure function of incoming messages. Components with distinct modes
// for data receipt and computation — the model Pia's synchronization
// works best with — fit Reactor naturally, and reactors are
// automatically resumable after a rollback because all their state
// lives in the receiver struct.
type Reactor interface {
	// OnMessage handles one delivered message. Returning a non-nil
	// error terminates the component with that error.
	OnMessage(p *Proc, m Msg) error
}

// Initializer is optionally implemented by Reactors that need to act
// before the first message (e.g. send a reset pulse). It runs every
// time the behaviour is (re)entered, including after a rollback, so
// it must be idempotent with respect to the reactor's state.
type Initializer interface {
	Init(p *Proc) error
}

// Finalizer is optionally implemented by Reactors that want a hook
// when the simulation ends (Recv returned ok=false).
type Finalizer interface {
	Finish(p *Proc) error
}

// React adapts a Reactor to the Behavior interface. If the reactor
// also implements StateSaver the adapter forwards checkpointing;
// otherwise it saves and restores the reactor value itself with
// GobSave/GobRestore, so a reactor whose state is its exported fields
// checkpoints without writing either method.
func React(r Reactor) Behavior { return &reactorBehavior{r: r} }

type reactorBehavior struct {
	r Reactor
}

func (b *reactorBehavior) Run(p *Proc) error {
	if init, ok := b.r.(Initializer); ok {
		if err := init.Init(p); err != nil {
			return err
		}
	}
	for {
		m, ok := p.Recv()
		if !ok {
			if fin, isFin := b.r.(Finalizer); isFin {
				return fin.Finish(p)
			}
			return nil
		}
		if err := b.r.OnMessage(p, m); err != nil {
			return err
		}
	}
}

func (b *reactorBehavior) SaveState() ([]byte, error) {
	if sv, ok := b.r.(StateSaver); ok {
		return sv.SaveState()
	}
	return GobSave(b.r)
}

func (b *reactorBehavior) RestoreState(data []byte) error {
	if sv, ok := b.r.(StateSaver); ok {
		return sv.RestoreState(data)
	}
	return GobRestore(b.r, data)
}

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
