package service

import (
	"math"
	"sync/atomic"
	"time"
)

// Clock supplies the service's notion of "now" in simulation time units.
// The same admission engine runs unchanged under real time (WallClock) or
// under a clock its caller moves (ManualClock: tests, trace replays and
// the driver's simulation). Implementations must be safe for concurrent
// use.
type Clock interface {
	// Now returns the current time. It must be monotonically
	// non-decreasing across calls.
	Now() float64
}

// WallClock maps real time onto simulation time units: Now returns the
// number of units elapsed since the clock was created, at Scale units per
// second. It is what a deployed admission-control service runs under.
type WallClock struct {
	start time.Time
	scale float64
}

// NewWallClock returns a wall clock starting at 0 that advances scale
// simulation time units per real second (scale <= 0 defaults to 1).
func NewWallClock(scale float64) *WallClock {
	if !(scale > 0) || math.IsInf(scale, 0) {
		scale = 1
	}
	return &WallClock{start: time.Now(), scale: scale}
}

// Now implements Clock.
func (c *WallClock) Now() float64 { return time.Since(c.start).Seconds() * c.scale }

// Until returns the wall time left until the clock reads at, rounded up to
// the nanosecond: zero once it has, and the longest Duration for an instant
// beyond it. A pool on this clock arms its commit pump's timer with it.
func (c *WallClock) Until(at float64) time.Duration {
	ns := math.Ceil(at/c.scale*1e9) - float64(time.Since(c.start))
	switch {
	case ns >= math.MaxInt64:
		return math.MaxInt64
	case !(ns > 0):
		return 0
	}
	return time.Duration(ns)
}

// ManualClock is an explicitly advanced clock for tests and for callers
// that drive time themselves (e.g. replaying a trace or a simulated
// workload). The zero value is ready to use at time 0. It takes no lock:
// the time is one atomic word, which Set and Advance move forward by
// compare-and-swap.
type ManualClock struct {
	bits atomic.Uint64 // the time, as float64 bits
}

// NewManualClock returns a manual clock set to t.
func NewManualClock(t float64) *ManualClock {
	c := &ManualClock{}
	c.bits.Store(math.Float64bits(t))
	return c
}

// Now implements Clock.
func (c *ManualClock) Now() float64 { return math.Float64frombits(c.bits.Load()) }

// Set moves the clock to t. Moving backwards is a no-op: the clock is
// monotone, matching every other Clock implementation.
func (c *ManualClock) Set(t float64) {
	for {
		old := c.bits.Load()
		if !(t > math.Float64frombits(old)) || c.bits.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
}

// Advance moves the clock forward by d (negative d is a no-op) and returns
// the new time.
func (c *ManualClock) Advance(d float64) float64 {
	for {
		old := c.bits.Load()
		now := math.Float64frombits(old)
		if !(d > 0) {
			return now
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(now+d)) {
			return now + d
		}
	}
}
