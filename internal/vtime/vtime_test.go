package vtime

import (
	"testing"
	"testing/quick"
)

func TestAddSaturates(t *testing.T) {
	if got := Infinity.Add(5); got != Infinity {
		t.Fatalf("Infinity.Add(5) = %v, want Infinity", got)
	}
	near := Infinity - 3
	if got := near.Add(10); got != Infinity {
		t.Fatalf("near-overflow Add = %v, want Infinity", got)
	}
	if got := Time(100).Add(23); got != 123 {
		t.Fatalf("100.Add(23) = %v, want 123", got)
	}
	if got := Time(100).Add(-40); got != 60 {
		t.Fatalf("100.Add(-40) = %v, want 60", got)
	}
}

func TestComparisons(t *testing.T) {
	if !Time(1).Before(2) || Time(2).Before(1) || Time(2).Before(2) {
		t.Fatal("Before misbehaves")
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Fatal("Min misbehaves")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Max misbehaves")
	}
}

func TestSub(t *testing.T) {
	if d := Time(50).Sub(20); d != 30 {
		t.Fatalf("Sub = %v, want 30", d)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{Infinity, "inf"},
		{0, "0ns"},
		{42, "42ns"},
		{Time(3 * Microsecond), "3us"},
		{Time(2 * Millisecond), "2ms"},
		{Time(1500 * Microsecond), "1.500ms"},
		{Time(2 * Second), "2s"},
		{Time(2*Second + 250*Millisecond), "2.250s"},
		{-42, "-42ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: Add is monotone in the duration for non-negative durations.
func TestAddMonotoneProperty(t *testing.T) {
	f := func(base int32, d1, d2 uint16) bool {
		b := Time(base)
		lo, hi := Duration(d1), Duration(d2)
		if lo > hi {
			lo, hi = hi, lo
		}
		return !b.Add(hi).Before(b.Add(lo))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Min/Max are commutative and bracket their arguments.
func TestMinMaxProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		mn, mx := Min(x, y), Max(x, y)
		return mn == Min(y, x) && mx == Max(y, x) &&
			!x.Before(mn) && !y.Before(mn) && !mx.Before(x) && !mx.Before(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
