package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"rtdls/internal/dlt"
)

// modelState is everything a Model's accessors return, copied out.
type modelState struct {
	avail, cpsI, alphas []float64
	order               []int
	costs               []dlt.NodeCost
	params              dlt.Params
	sigma, rn, e        float64
	exec, est           float64
}

func stateOf(m *Model) modelState {
	return modelState{
		avail: slices.Clone(m.Avail()), cpsI: slices.Clone(m.CpsI()), alphas: slices.Clone(m.Alphas()),
		order: slices.Clone(m.Order()), costs: slices.Clone(m.NodeCosts()),
		params: m.Params(), sigma: m.Sigma(), rn: m.Rn(), e: m.NoIITExecTime(),
		exec: m.ExecTime(), est: m.EstCompletion(),
	}
}

// equal compares bit for bit; a nil slice differs from an empty one, as
// Hetero and Order tell the two constructions apart by it.
func (a modelState) equal(b modelState) bool {
	return slices.Equal(a.avail, b.avail) && slices.Equal(a.cpsI, b.cpsI) && slices.Equal(a.alphas, b.alphas) &&
		slices.Equal(a.order, b.order) && (a.order == nil) == (b.order == nil) &&
		slices.Equal(a.costs, b.costs) && (a.costs == nil) == (b.costs == nil) &&
		a.params == b.params && a.sigma == b.sigma && a.rn == b.rn && a.e == b.e && a.exec == b.exec && a.est == b.est
}

// legacyPartition is the partition recurrence as it was written before the
// running products moved into the alphas buffer: a separate product array,
// scaled into a fresh alphas slice. cms(i) is processor i's link cost.
func legacyPartition(cpsI []float64, cms func(int) float64) []float64 {
	n := len(cpsI)
	prods := make([]float64, n)
	prods[0] = 1
	prod, sum := 1.0, 0.0
	for i := 1; i < n; i++ {
		prod *= cpsI[i-1] / (cms(i) + cpsI[i])
		prods[i] = prod
		sum += prod
	}
	alphas := make([]float64, n)
	for i := range alphas {
		alphas[i] = prods[i] * (1 / (1 + sum))
	}
	return alphas
}

// TestResetMatchesNew drives one Model through a random sequence of inputs
// — node counts growing and shrinking, the two constructions interleaved,
// sorted and unsorted times, and inputs every check rejects — and requires
// after each the state of a model built fresh for that input, bit for bit,
// or the same error with the previous state intact.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2))
	var m Model
	var last *modelState
	for step := 0; step < 4000; step++ {
		n := 1 + rng.IntN(24)
		avail := make([]float64, n)
		for i := range avail {
			avail[i] = math.Round(rng.Float64()*40) * 50 // ties are common
		}
		if rng.IntN(3) > 0 {
			sort.Float64s(avail) // what the schedulers pass
		}
		sigma := 1 + rng.Float64()*500
		p := dlt.Params{Cms: 0.5 + rng.Float64(), Cps: 50 + rng.Float64()*100}
		costs := randomHeteroCosts(rng, n)
		hetero := rng.IntN(2) == 0

		switch rng.IntN(12) { // one input in three is rejected by some check
		case 0:
			avail[rng.IntN(n)] = math.NaN()
		case 1:
			avail[rng.IntN(n)] = math.Inf(1 - 2*rng.IntN(2))
		case 2:
			sigma = []float64{0, -3, math.Inf(1), math.NaN()}[rng.IntN(4)]
		case 3:
			if hetero {
				costs[rng.IntN(n)].Cps = []float64{0, -1, math.NaN()}[rng.IntN(3)]
			} else {
				p.Cms = []float64{0, -1, math.Inf(1)}[rng.IntN(3)]
			}
		case 4:
			avail = nil
			if rng.IntN(2) == 0 {
				costs = nil
			}
		case 5:
			if hetero {
				costs = costs[:n-1]
			}
		}

		var fresh *Model
		var freshErr, err error
		if hetero {
			fresh, freshErr = NewHetero(costs, sigma, avail)
			err = m.ResetHetero(costs, sigma, avail)
		} else {
			fresh, freshErr = New(p, sigma, avail)
			err = m.Reset(p, sigma, avail)
		}
		if (err == nil) != (freshErr == nil) || (err != nil && err.Error() != freshErr.Error()) {
			t.Fatalf("step %d: Reset error %v, fresh model error %v", step, err, freshErr)
		}
		if err != nil {
			if last != nil && !stateOf(&m).equal(*last) {
				t.Fatalf("step %d: rejected input (%v) changed the model:\n got  %+v\n want %+v", step, err, stateOf(&m), *last)
			}
			continue
		}
		got, want := stateOf(&m), stateOf(fresh)
		if !got.equal(want) || m.Hetero() != hetero {
			t.Fatalf("step %d (n=%d hetero=%v): reused model differs from a fresh one:\n got  %+v\n want %+v", step, n, hetero, got, want)
		}
		cms := func(int) float64 { return p.Cms }
		if hetero {
			cms = func(i int) float64 { return got.costs[i].Cms }
		}
		if legacy := legacyPartition(got.cpsI, cms); !slices.Equal(got.alphas, legacy) {
			t.Fatalf("step %d: alphas %v differ from the two-buffer recurrence %v", step, got.alphas, legacy)
		}
		last = &got
	}
	if last == nil {
		t.Fatal("no input was accepted")
	}
}

// TestResetDispatchInto: the reused model dispatches into a reused
// timeline exactly as a fresh model dispatches into a fresh one.
func TestResetDispatchInto(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 3))
	var m Model
	var d dlt.Dispatch
	for step := 0; step < 500; step++ {
		n := 1 + rng.IntN(24)
		avail := make([]float64, n)
		for i := range avail {
			avail[i] = rng.Float64() * 2000
		}
		sigma := 1 + rng.Float64()*500
		var fresh *Model
		var err error
		if costs := randomHeteroCosts(rng, n); rng.IntN(2) == 0 {
			fresh, _ = NewHetero(costs, sigma, avail)
			err = m.ResetHetero(costs, sigma, avail)
		} else {
			fresh, _ = New(baseline, sigma, avail)
			err = m.Reset(baseline, sigma, avail)
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Dispatch()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.DispatchInto(&d); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(d.SendStart, want.SendStart) || !slices.Equal(d.SendEnd, want.SendEnd) ||
			!slices.Equal(d.Finish, want.Finish) || d.Completion != want.Completion {
			t.Fatalf("step %d: reused dispatch %+v, fresh %+v", step, d, *want)
		}
	}
}

// TestResetAcrossParams: one Model reset under one cluster for a few
// steps, then under another, its table of powers of β also read between
// resets (as OPR's estimate reads it), matches a fresh model field for
// field, and every E(σ,n) it returns is ExecTime's bit for bit. A table
// that kept the other cluster's powers would fail both.
func TestResetAcrossParams(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 1))
	ps := [2]dlt.Params{baseline, {Cms: 2.5, Cps: 40}}
	var m Model
	cur, switches := 0, 0
	for step := 0; step < 3000; step++ {
		if rng.IntN(5) == 0 {
			cur, switches = 1-cur, switches+1
		}
		p := ps[cur]
		n := 1 + rng.IntN(40)
		avail := make([]float64, n)
		for i := range avail {
			avail[i] = math.Round(rng.Float64()*40) * 50
		}
		sort.Float64s(avail)
		sigma := 1 + rng.Float64()*500
		if err := m.Reset(p, sigma, avail); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(p, sigma, avail)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stateOf(&m), stateOf(fresh); !got.equal(want) || got.e != p.ExecTime(sigma, n) {
			t.Fatalf("step %d (n=%d, %+v): reused model differs from a fresh one or from ExecTime %v:\n got  %+v\n want %+v",
				step, n, p, p.ExecTime(sigma, n), got, want)
		}
		if k := 1 + rng.IntN(60); rng.IntN(3) == 0 {
			if got, want := m.NoIITExecTimeFor(p, sigma, k), p.ExecTime(sigma, k); got != want {
				t.Fatalf("step %d: E(σ,%d) under %+v is %v, ExecTime says %v", step, k, p, got, want)
			}
		}
	}
	if switches < 100 {
		t.Fatalf("only %d switches between the clusters", switches)
	}
}
