// Package trace records per-task scheduling lifecycle events. It provides
// an rt.Observer-compatible recorder backed by a bounded ring buffer plus
// simple counters, used by the examples and the integration tests.
package trace

import (
	"fmt"

	"rtdls/internal/rt"
)

// Kind labels a lifecycle event.
type Kind uint8

const (
	// Accept: the task passed the schedulability test and joined the
	// waiting queue.
	Accept Kind = iota
	// Reject: the task failed the schedulability test.
	Reject
	// Commit: the task's first data transmission began; its plan is final.
	Commit
)

// String returns the event kind's name.
func (k Kind) String() string {
	switch k {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	case Commit:
		return "commit"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one lifecycle event.
type Record struct {
	Kind     Kind
	Time     float64 // simulation time of the event
	TaskID   int64
	Arrival  float64
	Sigma    float64
	Deadline float64 // absolute deadline
	Nodes    int     // assigned node count (Accept/Commit)
	Est      float64 // estimated completion (Accept/Commit)
}

// Ring is a bounded event recorder implementing rt.Observer. A Ring with
// capacity 0 only counts events. It has no locking of its own, but its one
// installation path (service.Config.Observer, or rtdls.WithObserver) has
// the service make every callback under its shard's lock, so one Ring per
// shard is safe even with concurrent submitters; do not share a Ring
// across shards or read it while a run is in flight.
type Ring struct {
	cap     int
	buf     []Record
	start   int
	dropped int

	accepts int
	rejects int
	commits int
}

// NewRing returns a recorder keeping at most capacity records (older
// records are dropped first).
func NewRing(capacity int) *Ring {
	if capacity < 0 {
		capacity = 0
	}
	return &Ring{cap: capacity}
}

func (r *Ring) push(rec Record) {
	if r.cap == 0 {
		return
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, rec)
		return
	}
	r.buf[r.start] = rec
	r.start = (r.start + 1) % r.cap
	r.dropped++
}

// OnAccept implements rt.Observer.
func (r *Ring) OnAccept(now float64, t *rt.Task, p *rt.Plan) {
	r.accepts++
	r.push(Record{
		Kind: Accept, Time: now, TaskID: t.ID, Arrival: t.Arrival,
		Sigma: t.Sigma, Deadline: t.AbsDeadline(),
		Nodes: len(p.Nodes), Est: p.Est,
	})
}

// OnReject implements rt.Observer.
func (r *Ring) OnReject(now float64, t *rt.Task) {
	r.rejects++
	r.push(Record{
		Kind: Reject, Time: now, TaskID: t.ID, Arrival: t.Arrival,
		Sigma: t.Sigma, Deadline: t.AbsDeadline(),
	})
}

// OnCommit implements rt.Observer.
func (r *Ring) OnCommit(now float64, p *rt.Plan) {
	r.commits++
	r.push(Record{
		Kind: Commit, Time: now, TaskID: p.Task.ID, Arrival: p.Task.Arrival,
		Sigma: p.Task.Sigma, Deadline: p.Task.AbsDeadline(),
		Nodes: len(p.Nodes), Est: p.Est,
	})
}

// Records returns the retained records in chronological order.
func (r *Ring) Records() []Record {
	out := make([]Record, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// Dropped returns how many records were evicted from the ring.
func (r *Ring) Dropped() int { return r.dropped }

// Accepts returns the number of Accept events observed.
func (r *Ring) Accepts() int { return r.accepts }

// Rejects returns the number of Reject events observed.
func (r *Ring) Rejects() int { return r.rejects }

// Commits returns the number of Commit events observed.
func (r *Ring) Commits() int { return r.commits }
