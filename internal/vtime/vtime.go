// Package vtime defines virtual (simulated) time for the Pia
// co-simulation framework.
//
// Pia maintains a two-level hierarchy of virtual time: every component
// has a local time, and every subsystem has a subsystem (system) time
// that is required to be less than or equal to the local time of every
// component in the subsystem. This package provides the scalar time
// type both levels are built from.
//
// Time is a count of ticks. A tick is dimensionless as far as the
// kernel is concerned; workloads conventionally treat one tick as one
// nanosecond of simulated time, and the helpers below follow that
// convention.
package vtime

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in ticks since the start
// of the simulation. Negative values are not used by the kernel except
// for the zero-value convenience of comparisons.
type Time int64

// Duration is a span of virtual time in ticks.
type Duration int64

// Infinity is a time later than every event the simulator can
// schedule. A subsystem whose next event is at Infinity has run out of
// work; a safe time of Infinity means "I will never send you anything
// again".
const Infinity Time = math.MaxInt64

// Conventional tick interpretations (one tick = one nanosecond).
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t advanced by d, saturating at Infinity rather than
// overflowing. Advancing Infinity by any duration stays at Infinity.
func (t Time) Add(d Duration) Time {
	if t == Infinity {
		return Infinity
	}
	if d > 0 && t > Infinity-Time(d) {
		return Infinity
	}
	return t + Time(d)
}

// Sub returns the duration from u to t (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// String formats the time using the one-tick-per-nanosecond
// convention: "inf" for Infinity, otherwise a scaled decimal such as
// "1.5ms" or "42ns".
func (t Time) String() string {
	if t == Infinity {
		return "inf"
	}
	return formatTicks(int64(t))
}

// String formats the duration like Time.String.
func (d Duration) String() string { return formatTicks(int64(d)) }

func formatTicks(n int64) string {
	neg := ""
	if n < 0 {
		neg = "-"
		n = -n
	}
	switch {
	case n >= int64(Second) && n%int64(Millisecond) == 0:
		whole := n / int64(Second)
		frac := (n % int64(Second)) / int64(Millisecond)
		if frac == 0 {
			return fmt.Sprintf("%s%ds", neg, whole)
		}
		return fmt.Sprintf("%s%d.%03ds", neg, whole, frac)
	case n >= int64(Millisecond) && n%int64(Microsecond) == 0:
		whole := n / int64(Millisecond)
		frac := (n % int64(Millisecond)) / int64(Microsecond)
		if frac == 0 {
			return fmt.Sprintf("%s%dms", neg, whole)
		}
		return fmt.Sprintf("%s%d.%03dms", neg, whole, frac)
	case n >= int64(Microsecond) && n%int64(Nanosecond) == 0 && n%int64(Microsecond) == 0:
		return fmt.Sprintf("%s%dus", neg, n/int64(Microsecond))
	default:
		return fmt.Sprintf("%s%dns", neg, n)
	}
}
