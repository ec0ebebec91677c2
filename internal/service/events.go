package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

// EventKind labels a service lifecycle event.
type EventKind uint8

const (
	// EventAccept: the task passed the schedulability test and joined the
	// waiting queue.
	EventAccept EventKind = iota
	// EventReject: the task was rejected (see Event.Reason for the typed
	// cause: ErrInfeasible, ErrDeadlinePast or ErrClusterBusy).
	EventReject
	// EventCommit: the task's first data transmission began; its plan is
	// final and its nodes are occupied.
	EventCommit
	// EventDisplace: an admitted-but-uncommitted task lost its seat
	// because fleet capacity changed (a node drained or failed) and the
	// re-run schedulability test found no replacement on this shard. The
	// event's Reason is ReasonNodeUnavailable. A pool re-admits displaced
	// tasks on its remaining shards; a fresh EventAccept on another shard
	// follows when that succeeds.
	EventDisplace
)

// String returns the event kind's name.
func (k EventKind) String() string {
	switch k {
	case EventAccept:
		return "accept"
	case EventReject:
		return "reject"
	case EventCommit:
		return "commit"
	case EventDisplace:
		return "displace"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one entry of the service's decision/lifecycle stream.
type Event struct {
	Kind EventKind
	Time float64 // service time of the event
	Task rt.Task // the task, by value

	// Shard identifies the cluster shard the event happened on: always 0
	// for a standalone Service, the shard index for a pool member.
	Shard int

	// Nodes and Est describe the plan (Accept/Commit events only).
	Nodes int
	Est   float64

	// Reason is the wire-stable rejection reason (Reject events only):
	// ReasonInfeasible, ReasonDeadlinePast or ReasonBusy. It serializes as
	// its string token and still matches the sentinels under errors.Is.
	Reason errs.Reason `json:",omitempty"`
}

// subscriber is one event-stream consumer with a private buffered channel.
type subscriber struct {
	ch      chan Event
	dropped atomic.Uint64
}

// Bus fans lifecycle events out to any number of subscribers. Publishing
// never blocks: a subscriber that falls behind its buffer loses events
// (counted per subscriber) rather than stalling admission control. A Bus
// can be private to one Service (the default) or shared by every shard of
// a pool, giving consumers one merged, shard-tagged stream.
//
// The subscriber count and drop totals live on atomics so the submit fast
// path (HasSubscribers) and the /metrics scrape (DroppedTotal) never touch
// the bus mutex, which Publish holds while the admission lock is held.
type Bus struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	nsubs  atomic.Int64
	drops  atomic.Uint64 // lifetime drop total, surviving subscriber detach
	closed bool
}

// NewBus returns an empty event bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[*subscriber]struct{})}
}

// Subscription is one consumer's handle on the event stream: its channel
// plus the subscriber's own dropped-event count, so a lossy consumer (an
// SSE streamer, a remote replicator) can detect exactly how many events it
// missed and surface the gap instead of silently skipping decisions.
type Subscription struct {
	b    *Bus
	s    *subscriber
	once sync.Once
}

// Subscribe registers a consumer with the given channel buffer (minimum 1)
// and returns its Subscription handle. On a closed bus the returned
// subscription is already terminated (its channel is closed).
func (b *Bus) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &subscriber{ch: make(chan Event, buffer)}
	sub := &Subscription{b: b, s: s}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(s.ch)
		sub.once.Do(func() {}) // already terminated; Cancel is a no-op
		return sub
	}
	b.subs[s] = struct{}{}
	b.nsubs.Store(int64(len(b.subs)))
	b.mu.Unlock()
	return sub
}

// C returns the subscription's event channel. It is closed by Cancel or
// when the bus closes.
func (sub *Subscription) C() <-chan Event { return sub.s.ch }

// Dropped returns how many events this subscriber has lost so far because
// its buffer was full. The count is monotone and remains readable after
// the subscription ends.
func (sub *Subscription) Dropped() uint64 { return sub.s.dropped.Load() }

// Cancel detaches the subscriber and closes its channel. Idempotent, and a
// no-op after the bus itself has closed the subscription.
func (sub *Subscription) Cancel() {
	sub.once.Do(func() {
		sub.b.mu.Lock()
		_, live := sub.b.subs[sub.s]
		delete(sub.b.subs, sub.s)
		sub.b.nsubs.Store(int64(len(sub.b.subs)))
		sub.b.mu.Unlock()
		if live {
			close(sub.s.ch)
		}
	})
}

// Publish delivers ev to every subscriber without blocking.
func (b *Bus) Publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			b.drops.Add(1)
		}
	}
}

// DroppedTotal returns the number of events lost over the bus's lifetime.
// It is monotone — cancelling a lagging subscriber does not erase its
// losses — and lock-free, so metrics scrapes read it without contending
// with publishers.
func (b *Bus) DroppedTotal() uint64 { return b.drops.Load() }

// Close closes every subscriber channel and rejects future subscriptions.
// It is idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		close(s.ch)
		delete(b.subs, s)
	}
	b.nsubs.Store(0)
}

// HasSubscribers reports whether any consumer is attached — the lock-free
// fast path that lets hot loops skip event construction entirely.
func (b *Bus) HasSubscribers() bool { return b.nsubs.Load() > 0 }
