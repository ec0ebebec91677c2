package service

import (
	"reflect"
	"slices"
	"testing"

	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

// TestNewDecisionAllocs pins the accepted-Decision construction into a
// fresh Decision to no heap allocation per call: Nodes and the Starts |
// Alphas block are cut from the service's arenas, whose chunk refills
// amortize to well under one per decision. BenchmarkServiceSubmit's
// allocs/op rides on this — an allocation here shows up directly on the
// accept hot path.
func TestNewDecisionAllocs(t *testing.T) {
	pl := &rt.Plan{
		Nodes:  []int{3, 1, 4, 1, 5},
		Starts: []float64{0, 1, 2, 3, 4},
		Alphas: []float64{0.2, 0.2, 0.2, 0.2, 0.2},
		Est:    42,
		Rounds: 1,
	}
	s := &Service{}
	allocs := testing.AllocsPerRun(2000, func() {
		var d Decision
		s.newDecision(&d, 7, 1.5, pl)
		if len(d.Starts) != len(pl.Starts) {
			t.Fatal("decision lost its starts")
		}
	})
	if allocs != 0 {
		t.Fatalf("newDecision allocates %.0f times per call, want 0 (arena chunks only)", allocs)
	}
}

// TestNewDecisionIndependence verifies the arena-cut copies really are
// copies: mutating the source plan after the fact must not leak into the
// returned Decision, the two float views must not alias each other, and
// appending to or overwriting one decision's slices must leave the next
// decision cut from the same chunks, and the plan, intact.
func TestNewDecisionIndependence(t *testing.T) {
	pl := &rt.Plan{
		Nodes:  []int{0, 1},
		Starts: []float64{10, 20},
		Alphas: []float64{0.5, 0.5},
	}
	ints, floats := make([]int, 8), make([]float64, 8)
	s := &Service{ints: ints, floats: floats}
	var d, next Decision
	s.newDecision(&d, 1, 0, pl)
	s.newDecision(&next, 2, 0, pl)
	if &d.Nodes[0] != &ints[0] || &next.Nodes[0] != &ints[2] || &d.Starts[0] != &floats[0] || &next.Starts[0] != &floats[4] {
		t.Fatal("two consecutive decisions were not cut from one chunk")
	}
	pl.Nodes[0], pl.Starts[0], pl.Alphas[0] = 9, 99, 0.9
	if d.Nodes[0] != 0 || d.Starts[0] != 10 || d.Alphas[0] != 0.5 {
		t.Fatalf("decision aliases the plan: %+v", d)
	}
	pl.Nodes[0], pl.Starts[0], pl.Alphas[0] = 0, 10, 0.5
	d.Nodes[1], d.Starts[1], d.Alphas[1] = -1, -1, -1 // in place, in the chunks
	d.Starts = append(d.Starts, 30)                   // must not clobber Alphas' backing array
	if d.Alphas[0] != 0.5 || d.Alphas[1] != -1 {
		t.Fatalf("Starts append clobbered Alphas: %v", d.Alphas)
	}
	d.Nodes = append(d.Nodes, 7, 7)
	d.Alphas = append(d.Alphas, 7, 7)
	if !slices.Equal(next.Nodes, []int{0, 1}) || !slices.Equal(next.Starts, []float64{10, 20}) ||
		!slices.Equal(next.Alphas, []float64{0.5, 0.5}) {
		t.Fatalf("appending to or overwriting one decision changed the next: %+v", next)
	}
	if !slices.Equal(pl.Nodes, []int{0, 1}) || !slices.Equal(pl.Starts, []float64{10, 20}) ||
		!slices.Equal(pl.Alphas, []float64{0.5, 0.5}) {
		t.Fatalf("appending to or overwriting a decision changed the plan: %+v", pl)
	}
}

// TestNewDecisionReuse pins the in-place path: a Decision whose slices can
// hold the plan gets it copied into that storage and cuts nothing from the
// arenas; one whose slices are too short gets fresh cuts, leaving the old
// storage alone; and a reject keeps the storage, truncated to zero length,
// while a fresh Decision's reject has nil slices.
func TestNewDecisionReuse(t *testing.T) {
	small := &rt.Plan{Nodes: []int{2, 0}, Starts: []float64{1, 2}, Alphas: []float64{0.4, 0.6}, Est: 9, Rounds: 1}
	big := &rt.Plan{Nodes: []int{0, 1, 2}, Starts: []float64{1, 2, 3}, Alphas: []float64{0.3, 0.3, 0.4}, Est: 8, Rounds: 2}
	s := &Service{shard: 3, bus: NewBus()}
	nodes, starts, alphas := make([]int, 1, 4), make([]float64, 0, 4), make([]float64, 3, 4)
	d := Decision{Nodes: nodes, Starts: starts, Alphas: alphas}
	s.newDecision(&d, 5, 1.5, small)
	want := Decision{TaskID: 5, Accepted: true, At: 1.5, Shard: 3, Est: 9, Rounds: 1,
		Nodes: []int{2, 0}, Starts: []float64{1, 2}, Alphas: []float64{0.4, 0.6}}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("reused decision %+v, want %+v", d, want)
	}
	if &d.Nodes[0] != &nodes[:1][0] || &d.Starts[0] != &starts[:1][0] || &d.Alphas[0] != &alphas[0] {
		t.Fatal("a decision whose slices hold the plan was not written into them")
	}
	if s.ints != nil || s.floats != nil {
		t.Fatal("the reuse path cut from the arenas")
	}

	s.rejected(&rt.Task{ID: 6}, 2, errs.ReasonInfeasible, &d)
	if d.Accepted || d.TaskID != 6 || d.Reason != errs.ReasonInfeasible || len(d.Nodes)+len(d.Starts)+len(d.Alphas) != 0 {
		t.Fatalf("reject %+v", d)
	}
	if cap(d.Nodes) != 4 || cap(d.Starts) != 4 || cap(d.Alphas) != 4 {
		t.Fatal("a reject dropped the decision's storage")
	}
	var fresh Decision
	s.rejected(&rt.Task{ID: 6}, 2, errs.ReasonInfeasible, &fresh)
	if fresh.Nodes != nil || fresh.Starts != nil || fresh.Alphas != nil {
		t.Fatalf("a fresh decision's reject has storage: %+v", fresh)
	}

	d.Alphas = alphas[:0:2] // too short for big: every slice is cut afresh
	s.newDecision(&d, 7, 3, big)
	if !slices.Equal(d.Nodes, big.Nodes) || !slices.Equal(d.Starts, big.Starts) || !slices.Equal(d.Alphas, big.Alphas) {
		t.Fatalf("grown decision %+v", d)
	}
	if &d.Nodes[0] == &nodes[:1][0] || &d.Starts[0] == &starts[:1][0] || cap(d.Starts) != 3 || cap(d.Alphas) != 3 {
		t.Fatal("a decision too short for the plan was not cut afresh, cap-limited")
	}
	if !slices.Equal(nodes[:2], []int{2, 0}) {
		t.Fatal("cutting afresh wrote into the old storage")
	}
}
