package service

import (
	"slices"
	"testing"

	"rtdls/internal/rt"
)

// TestNewDecisionAllocs pins the accepted-Decision construction to no heap
// allocation per call: Nodes and the Starts | Alphas block are cut from the
// service's arenas, whose chunk refills amortize to well under one per
// decision. BenchmarkServiceSubmit's allocs/op rides on this — an
// allocation here shows up directly on the accept hot path.
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
		d := s.newDecision(7, 1.5, pl)
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
	d := s.newDecision(1, 0, pl)
	next := s.newDecision(2, 0, pl)
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
