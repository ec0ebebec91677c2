package dlt

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// TestSimulateDispatchIntoMatches drives one Dispatch through a random
// sequence of inputs — node counts growing and shrinking, both cost forms,
// and inputs every check rejects — and requires after each the timeline a
// fresh SimulateDispatch / SimulateDispatchHetero returns, bit for bit, or
// the same error with the Dispatch still usable for the next input.
func TestSimulateDispatchIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 4))
	var d Dispatch
	accepted := 0
	for step := 0; step < 4000; step++ {
		n := 1 + rng.IntN(24)
		avail := make([]float64, n)
		alphas := make([]float64, n)
		costs := make([]NodeCost, n)
		for i := range avail {
			avail[i] = math.Round(rng.Float64()*40)*50 - 200
			alphas[i] = rng.Float64() / float64(n)
			costs[i] = NodeCost{Cms: rng.Float64() * 2, Cps: 50 + rng.Float64()*100}
		}
		sort.Float64s(avail)
		sigma := rng.Float64() * 500
		p := Params{Cms: 0.5 + rng.Float64(), Cps: 50 + rng.Float64()*100}
		hetero := rng.IntN(2) == 0

		switch rng.IntN(15) { // one input in three is rejected by some check
		case 0:
			if n > 1 {
				avail[0], avail[n-1] = avail[n-1]+1, avail[0] // unsorted
			}
		case 1:
			alphas[rng.IntN(n)] = -0.1
		case 2:
			sigma = []float64{-3, math.Inf(1), math.NaN()}[rng.IntN(3)]
		case 3:
			p.Cps = 0
			costs[rng.IntN(n)].Cms = -1
		case 4:
			alphas = alphas[:n-1]
		}

		var want *Dispatch
		var wantErr, err error
		if hetero {
			want, wantErr = SimulateDispatchHetero(costs, sigma, avail, alphas)
			err = SimulateDispatchHeteroInto(&d, costs, sigma, avail, alphas)
		} else {
			want, wantErr = SimulateDispatch(p, sigma, avail, alphas)
			err = SimulateDispatchInto(&d, p, sigma, avail, alphas)
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("step %d: Into error %v, fresh error %v", step, err, wantErr)
		}
		if err != nil {
			continue
		}
		accepted++
		if !slices.Equal(d.SendStart, want.SendStart) || !slices.Equal(d.SendEnd, want.SendEnd) ||
			!slices.Equal(d.Finish, want.Finish) || d.Completion != want.Completion {
			t.Fatalf("step %d (n=%d hetero=%v): reused dispatch %+v, fresh %+v", step, n, hetero, d, *want)
		}
	}
	if accepted < 2000 {
		t.Fatalf("only %d inputs accepted", accepted)
	}
}

// TestSimulateForMatches re-simulates plans on a uniform and a
// heterogeneous cost model, on node subsets growing and shrinking, and
// requires the timeline the direct simulators return for the selected
// coefficients, bit for bit.
func TestSimulateForMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 6))
	table := make([]NodeCost, 32)
	for i := range table {
		table[i] = NodeCost{Cms: 0.2 + rng.Float64()*2, Cps: 50 + rng.Float64()*100}
	}
	het, err := NewCostModel(table)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := UniformCosts(baseline, len(table))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
		n := 1 + rng.IntN(len(table))
		ids := rng.Perm(len(table))[:n]
		avail := make([]float64, n)
		alphas := make([]float64, n)
		for i := range avail {
			avail[i] = math.Round(rng.Float64()*40) * 50
			alphas[i] = rng.Float64() / float64(n)
		}
		sort.Float64s(avail)
		sigma := rng.Float64() * 500
		m, want, wantErr := uni, (*Dispatch)(nil), error(nil)
		if rng.IntN(2) == 0 {
			m = het
			want, wantErr = SimulateDispatchHetero(het.SelectInto(nil, ids), sigma, avail, alphas)
		} else {
			want, wantErr = SimulateDispatch(baseline, sigma, avail, alphas)
		}
		d, err := m.SimulateFor(ids, sigma, avail, alphas)
		if err != nil || wantErr != nil {
			t.Fatalf("step %d: %v, %v", step, err, wantErr)
		}
		if !slices.Equal(d.SendStart, want.SendStart) || !slices.Equal(d.SendEnd, want.SendEnd) ||
			!slices.Equal(d.Finish, want.Finish) || d.Completion != want.Completion {
			t.Fatalf("step %d (n=%d uniform=%v): dispatch %+v, direct %+v", step, n, m.Uniform(), *d, *want)
		}
	}
}

// TestIntoFormsMatch: the in-place partition helpers fill what their
// allocating forms return, and HeteroExecTime — which no longer builds the
// partition — still equals its first node's send-plus-compute time.
func TestIntoFormsMatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 5))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.IntN(32)
		costs := make([]NodeCost, n)
		for i := range costs {
			costs[i] = NodeCost{Cms: rng.Float64() * 2, Cps: 50 + rng.Float64()*100}
		}
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = rng.Float64() // stale contents must not matter
		}
		baseline.AlphasInto(buf)
		if want := baseline.Alphas(n); !slices.Equal(buf, want) {
			t.Fatalf("AlphasInto %v, Alphas %v", buf, want)
		}
		if err := HeteroAlphasInto(buf, costs); err != nil {
			t.Fatal(err)
		}
		want, err := HeteroAlphas(costs)
		if err != nil || !slices.Equal(buf, want) {
			t.Fatalf("HeteroAlphasInto %v, HeteroAlphas %v (%v)", buf, want, err)
		}
		sigma := rng.Float64() * 500
		e, err := HeteroExecTime(costs, sigma)
		if err != nil || e != want[0]*sigma*(costs[0].Cms+costs[0].Cps) {
			t.Fatalf("HeteroExecTime %v (%v), α₁·σ·(Cms₁+Cps₁) = %v", e, err, want[0]*sigma*(costs[0].Cms+costs[0].Cps))
		}
	}
	if err := HeteroAlphasInto(make([]float64, 2), []NodeCost{{1, 1}, {1, 1}, {1, 1}}); err == nil {
		t.Fatal("HeteroAlphasInto accepted a buffer of the wrong length")
	}
}
