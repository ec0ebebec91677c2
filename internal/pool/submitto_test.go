package pool

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// sameDecision reports whether two decisions agree field for field and, on
// the plan slices, element for element: a reused Decision's reject carries
// empty slices where a fresh one's carries nil.
func sameDecision(a, b service.Decision) bool {
	if !slices.Equal(a.Nodes, b.Nodes) || !slices.Equal(a.Starts, b.Starts) || !slices.Equal(a.Alphas, b.Alphas) {
		return false
	}
	a.Nodes, a.Starts, a.Alphas = nil, nil, nil
	b.Nodes, b.Starts, b.Alphas = nil, nil, nil
	return reflect.DeepEqual(a, b)
}

// TestSubmitToReusesDecision feeds one seeded bursty stream through two
// 4×8 Spillover pools: one by value with Submit, one through SubmitTo into
// a single reused Decision. Every decision agrees, and the stream covers a
// reject right after an accept (the storage survives, truncated), a spilled
// accept, and a plan larger than the storage the reused Decision had, which
// is cut afresh; an accept that fits is written into the storage it has.
func TestSubmitToReusesDecision(t *testing.T) {
	ctx := context.Background()
	byValue := newPool(t, 4, 8, Spillover{})
	inPlace := newPool(t, 4, 8, Spillover{})
	defer byValue.Close()
	defer inPlace.Close()

	rng := uint64(7)
	next := func(mod uint64) float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64((rng >> 33) % mod)
	}
	var d service.Decision
	var task rt.Task
	now, wasAccept := 0.0, false
	var rejectAfterAccept, spilled, grown, inStorage int
	for i := range 4000 {
		now += next(120)
		task = rt.Task{ID: int64(i + 1), Arrival: now, Sigma: 1 + next(800), RelDeadline: 1500 + next(6000)}
		if i%7 == 0 {
			task.UserN = 1 + int(next(8))
		}
		want, werr := byValue.Submit(ctx, task)
		spills := inPlace.Spillovers()
		oldCap := cap(d.Nodes)
		var oldNodes *int
		if oldCap > 0 {
			oldNodes = &d.Nodes[:1][0]
		}
		if err := inPlace.SubmitTo(ctx, &task, &d); err != nil || werr != nil {
			t.Fatalf("task %d: %v, %v", task.ID, err, werr)
		}
		if !sameDecision(d, want) {
			t.Fatalf("task %d: SubmitTo wrote %+v, Submit returned %+v", task.ID, d, want)
		}
		switch {
		case !d.Accepted:
			if wasAccept {
				rejectAfterAccept++
				if len(d.Nodes) != 0 || cap(d.Nodes) != oldCap {
					t.Fatalf("task %d: a reject left Nodes at len %d cap %d, want 0 and %d", task.ID, len(d.Nodes), cap(d.Nodes), oldCap)
				}
			}
		case len(d.Nodes) > oldCap:
			grown++
		default:
			inStorage++
			if &d.Nodes[0] != oldNodes {
				t.Fatalf("task %d: an accept that fits the storage was cut afresh", task.ID)
			}
		}
		if inPlace.Spillovers() > spills {
			spilled++
		}
		wasAccept = d.Accepted
	}
	if rejectAfterAccept == 0 || spilled == 0 || grown < 2 || inStorage == 0 {
		t.Fatalf("the stream lacks a case: %d rejects after an accept, %d spills, %d grown plans, %d in-storage accepts",
			rejectAfterAccept, spilled, grown, inStorage)
	}
	if got, want := inPlace.Stats(), byValue.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}
