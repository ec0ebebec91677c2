package pool

import (
	"fmt"

	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

// ShardLoad is the cheap point-in-time load signal the pool samples from
// every shard before each placement decision. Live is sampled on every
// submit (the pool skips shards with no live nodes); QueueLen and Nodes
// are sampled only for load-aware placements.
type ShardLoad struct {
	Shard    int // shard index
	QueueLen int // admitted-but-uncommitted tasks on the shard
	Nodes    int // shard cluster size (grows with AddNode)
	Live     int // placeable (up, neither draining nor down) nodes
}

// Placement decides which shard(s) should be offered a task. It is the
// pool's routing layer — the "which cluster" decision that multi-source
// divisible-load systems put in front of independently-fed clusters.
//
// Implementations must be stateless or internally synchronised: Order is
// called concurrently from every submitting goroutine. The pool passes a
// monotone submission sequence number so stateless implementations (round
// robin, deterministic sampling) stay reproducible without shared mutable
// state.
type Placement interface {
	// Name returns the placement's identifier (e.g. "round-robin").
	Name() string
	// Order appends to dst the shard indices to try, best first, and
	// returns it. A single-choice placement returns one index; a spillover
	// placement returns a preference order the pool walks until a shard
	// accepts. dst is a scratch buffer (length 0); loads has one entry per
	// shard, indexed by shard.
	Order(dst []int, seq uint64, loads []ShardLoad, t *rt.Task) []int
}

// LoadAware is the optional interface a Placement implements to tell the
// pool whether Order reads the QueueLen load signal. Sampling it reads
// two atomics per shard per submission — no shard's lock — and the pool
// skips even that for placements that report false. A placement that does
// not implement LoadAware is assumed to need the loads.
type LoadAware interface {
	NeedsLoads() bool
}

// RoundRobin cycles submissions across shards in sequence order —
// placement with zero load inspection, ideal for homogeneous shards and
// for deterministic replays (submission i goes to shard i mod K).
type RoundRobin struct{}

// Name implements Placement.
func (RoundRobin) Name() string { return "round-robin" }

// NeedsLoads implements LoadAware: round robin never reads the queue
// lengths, so the pool skips sampling them.
func (RoundRobin) NeedsLoads() bool { return false }

// Order implements Placement.
func (RoundRobin) Order(dst []int, seq uint64, loads []ShardLoad, _ *rt.Task) []int {
	return append(dst, int(seq%uint64(len(loads))))
}

// LeastLoaded routes every task to the shard with the shortest waiting
// queue, breaking ties toward the larger and then the lower-indexed shard.
type LeastLoaded struct{}

// Name implements Placement.
func (LeastLoaded) Name() string { return "least-loaded" }

// Order implements Placement.
func (LeastLoaded) Order(dst []int, _ uint64, loads []ShardLoad, _ *rt.Task) []int {
	best := 0
	for i := 1; i < len(loads); i++ {
		if loadBefore(loads[i], loads[best]) {
			best = i
		}
	}
	return append(dst, best)
}

// loadBefore reports whether shard a should be preferred over shard b:
// shorter queue first, then more live capacity, then more nodes, then
// lower index. With a fully-up fleet Live == Nodes everywhere and the
// order is exactly the pre-fleet (queue, nodes, index) one.
func loadBefore(a, b ShardLoad) bool {
	if a.QueueLen != b.QueueLen {
		return a.QueueLen < b.QueueLen
	}
	if a.Live != b.Live {
		return a.Live > b.Live
	}
	if a.Nodes != b.Nodes {
		return a.Nodes > b.Nodes
	}
	return a.Shard < b.Shard
}

// PowerOfTwoChoices samples two distinct shards pseudo-randomly and routes
// to the less loaded of the pair — the classic load-balancing compromise
// that avoids both round robin's blindness and least-loaded's full scan
// (and its herding under stale signals). The sampling is a deterministic
// function of (Seed, sequence number), so replays reproduce bit for bit.
type PowerOfTwoChoices struct {
	Seed uint64
}

// Name implements Placement.
func (PowerOfTwoChoices) Name() string { return "power-of-two" }

// Order implements Placement.
func (p PowerOfTwoChoices) Order(dst []int, seq uint64, loads []ShardLoad, _ *rt.Task) []int {
	k := uint64(len(loads))
	if k == 1 {
		return append(dst, 0)
	}
	h := splitmix64(p.Seed ^ (seq + 0x9e3779b97f4a7c15))
	a := int(h % k)
	b := int((h >> 32) % (k - 1))
	if b >= a {
		b++ // distinct second sample
	}
	if loadBefore(loads[b], loads[a]) {
		a = b
	}
	return append(dst, a)
}

// splitmix64 is the SplitMix64 mixing function: a cheap, high-quality
// stateless hash from a sequence number to 64 pseudo-random bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Spillover wraps another placement and, instead of a single choice,
// produces a full preference order: the inner placement's pick first, then
// every remaining shard from least to most loaded. The pool retries a
// rejected task down this order, so a task one shard cannot fit is only
// rejected once every shard has refused it — trading extra schedulability
// tests for a lower pool-wide reject ratio.
type Spillover struct {
	// Inner picks the first shard to try; nil defaults to LeastLoaded.
	Inner Placement
}

// Name implements Placement.
func (s Spillover) Name() string { return "spillover(" + s.inner().Name() + ")" }

func (s Spillover) inner() Placement {
	if s.Inner == nil {
		return LeastLoaded{}
	}
	return s.Inner
}

// Order implements Placement. The inner placement's picks (usually one,
// but any number — including zero — is tolerated) come first in their own
// order, then every shard not already picked from least to most loaded.
func (s Spillover) Order(dst []int, seq uint64, loads []ShardLoad, t *rt.Task) []int {
	dst = s.inner().Order(dst, seq, loads, t)
	picked := len(dst)
	// Insert the remaining shards in load order (insertion sort with a
	// linear dedup scan: K is small and dst must stay allocation-free).
	for i := range loads {
		taken := false
		for _, j := range dst[:picked] {
			if j == i {
				taken = true
				break
			}
		}
		if taken {
			continue
		}
		dst = append(dst, i)
		for at := len(dst) - 1; at > picked && loadBefore(loads[dst[at]], loads[dst[at-1]]); at-- {
			dst[at], dst[at-1] = dst[at-1], dst[at]
		}
	}
	return dst
}

// ParsePlacement resolves a placement by name: "round-robin" (or "rr"),
// "least-loaded" (or "ll"), "power-of-two" (or "p2c"), and "spillover"
// (Spillover over LeastLoaded); "spillover-rr" and "spillover-p2c" select
// the other inner placements. PowerOfTwoChoices variants use seed.
func ParsePlacement(name string, seed uint64) (Placement, error) {
	switch name {
	case "round-robin", "rr", "":
		return RoundRobin{}, nil
	case "least-loaded", "ll":
		return LeastLoaded{}, nil
	case "power-of-two", "p2c":
		return PowerOfTwoChoices{Seed: seed}, nil
	case "spillover":
		return Spillover{}, nil
	case "spillover-rr":
		return Spillover{Inner: RoundRobin{}}, nil
	case "spillover-p2c":
		return Spillover{Inner: PowerOfTwoChoices{Seed: seed}}, nil
	default:
		return nil, fmt.Errorf("pool: unknown placement %q (want round-robin, least-loaded, power-of-two, spillover, spillover-rr or spillover-p2c): %w",
			name, errs.ErrBadConfig)
	}
}

// Placements lists every placement name ParsePlacement accepts.
func Placements() []string {
	return []string{"round-robin", "least-loaded", "power-of-two", "spillover", "spillover-rr", "spillover-p2c"}
}
