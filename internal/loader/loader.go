// Package loader is the Go analogue of the Pia class loader: a
// component factory registry that resolves component implementations
// by name and supports re-registration.
//
// Pia's loader fetched Java classes on demand from arbitrary URLs. Go
// cannot load code at runtime, so the unit of loading is a registered
// factory.
package loader

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// Factory builds a fresh behaviour instance.
type Factory func() core.Behavior

// Registry resolves component names to factories.
type Registry struct {
	mu        sync.Mutex
	factories map[string]*entry
}

type entry struct {
	factory Factory
	version int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]*entry)}
}

// Register installs (or replaces) a factory; each registration bumps
// the name's version.
func (r *Registry) Register(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("loader: empty name or nil factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.factories[name]
	if e == nil {
		e = &entry{}
		r.factories[name] = e
	}
	e.factory = f
	e.version++
	return nil
}

// Version reports how many times the name has been registered (0 if
// unknown).
func (r *Registry) Version(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.factories[name]; e != nil {
		return e.version
	}
	return 0
}

// New instantiates a behaviour by name.
func (r *Registry) New(name string) (core.Behavior, error) {
	r.mu.Lock()
	e := r.factories[name]
	r.mu.Unlock()
	if e == nil {
		return nil, fmt.Errorf("loader: no factory for component %q", name)
	}
	b := e.factory()
	if b == nil {
		return nil, fmt.Errorf("loader: factory for %q produced nil", name)
	}
	return b, nil
}
