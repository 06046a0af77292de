package loader

import (
	"strings"
	"testing"

	"repro/internal/core"
)

type counter struct {
	N     int
	Bonus int // differs between "versions" of the component
}

func (c *counter) Run(p *core.Proc) error {
	for {
		_, ok := p.Recv("in")
		if !ok {
			return nil
		}
		c.N += 1 + c.Bonus
	}
}

func (c *counter) SaveState() ([]byte, error)  { return core.GobSave(c) }
func (c *counter) RestoreState(b []byte) error { return core.GobRestore(c, b) }

func TestRegisterResolve(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("counter", func() core.Behavior { return &counter{} }); err != nil {
		t.Fatal(err)
	}
	b, err := r.New("counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*counter); !ok {
		t.Fatalf("wrong type %T", b)
	}
	if _, err := r.New("ghost"); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("missing factory error wrong: %v", err)
	}
	if err := r.Register("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	if err := r.Register("nilfac", func() core.Behavior { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.New("nilfac"); err == nil {
		t.Fatal("nil-producing factory accepted at New")
	}
}

func TestVersionBumps(t *testing.T) {
	r := NewRegistry()
	r.Register("x", func() core.Behavior { return &counter{} })
	r.Register("x", func() core.Behavior { return &counter{Bonus: 1} })
	if r.Version("x") != 2 {
		t.Fatalf("Version = %d, want 2", r.Version("x"))
	}
	if r.Version("y") != 0 {
		t.Fatalf("Version of an unregistered name = %d, want 0", r.Version("y"))
	}
}
