package dlt

import (
	"math"
	"testing"
)

// FuzzMinNodesBound fuzzes the node-count bound: whenever it declares a
// task feasible, the no-IIT execution time on the returned node count must
// fit in the slack; whenever it rejects, the slack must genuinely be below
// the transmission floor. At a second slack no smaller than the first, the
// bound — taken through MinNodesBoundLn with ln β computed once, as the
// schedulers take it — must exist whenever it exists at the first and must
// not be larger: a search may start at the bound of the smaller slack alone.
func FuzzMinNodesBound(f *testing.F) {
	f.Add(1.0, 100.0, 200.0, 2718.0, 2718.0)
	f.Add(0.5, 10.0, 1.0, 5.0, 50.0)
	f.Add(8.0, 10000.0, 800.0, 1e6, 1.5e6)
	f.Add(0.001, 0.01, 0.1, 0.2, 0.2000001)
	// β → 1, where the schedulers' widening factor 1 + 10⁻⁹(Cms+Cps)/Cms
	// is about 2, and the baseline β, where it is 1 + 1.01·10⁻⁷.
	f.Add(1.0, 1e9, 300.0, 300.5, 300.5*(1+1e-9*(1+1e9)))
	f.Add(1.0, 1e9, 300.0, 1e7, 1e7*(1+1e-9*(1+1e9)))
	f.Add(1.0, 100.0, 200.0, 312.25, 312.25*(1+1e-9*101))
	f.Add(1.0, 100.0, 200.0, 2400.0, math.Nextafter(2400, 3000))
	f.Fuzz(func(t *testing.T, cms, cps, sigma, slack, slack2 float64) {
		p := Params{Cms: cms, Cps: cps}
		if p.Validate() != nil {
			t.Skip()
		}
		if !(sigma > 0) || !(slack > 0) || math.IsInf(sigma, 0) || math.IsInf(slack, 0) {
			t.Skip()
		}
		if sigma > 1e12 || slack > 1e15 || cms > 1e9 || cps > 1e9 {
			t.Skip() // keep the arithmetic in a range where fp guarantees hold
		}
		lnB := math.Log(p.Beta())
		n, ok := MinNodesBound(p, sigma, slack)
		if n2, ok2 := MinNodesBoundLn(p, lnB, sigma, slack); n2 != n || ok2 != ok {
			t.Fatalf("MinNodesBoundLn = %d, %v; MinNodesBound = %d, %v", n2, ok2, n, ok)
		}
		if slack2 >= slack && !math.IsInf(slack2, 0) {
			if m, ok2 := MinNodesBoundLn(p, lnB, sigma, slack2); ok && (!ok2 || m > n) {
				t.Fatalf("bound not monotone: slack %v gives %d, %v; larger slack %v gives %d, %v",
					slack, n, ok, slack2, m, ok2)
			}
		}
		if !ok {
			if slack > sigma*p.Cms*(1+1e-9) {
				t.Fatalf("rejected although transmission fits: slack=%v σCms=%v", slack, sigma*p.Cms)
			}
			return
		}
		if n < 1 {
			t.Fatalf("non-positive node count %d", n)
		}
		if n > 1<<40 {
			return // astronomically tight; ExecTime would be degenerate
		}
		if e := p.ExecTime(sigma, n); e > slack*(1+1e-6) {
			t.Fatalf("bound unsound: E(σ,%d)=%v > slack=%v", n, e, slack)
		}
	})
}

// FuzzSimulateDispatch fuzzes the dispatch timeline invariants for a
// three-node cluster: link exclusivity, availability causality and the
// completion being the max finish.
func FuzzSimulateDispatch(f *testing.F) {
	f.Add(200.0, 0.0, 10.0, 500.0, 0.5, 0.3, 0.2)
	f.Add(1.0, 5.0, 5.0, 5.0, 1.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, sigma, a1, a2, a3, x1, x2, x3 float64) {
		if !(sigma >= 0) || sigma > 1e9 || math.IsInf(sigma, 0) {
			t.Skip()
		}
		for _, v := range []float64{a1, a2, a3, x1, x2, x3} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				t.Skip()
			}
		}
		if x1 < 0 || x2 < 0 || x3 < 0 {
			t.Skip()
		}
		avail := []float64{a1, a2, a3}
		if avail[1] < avail[0] || avail[2] < avail[1] {
			t.Skip()
		}
		alphas := []float64{x1, x2, x3}
		d, err := SimulateDispatch(baseline, sigma, avail, alphas)
		if err != nil {
			t.Skip()
		}
		for i := 0; i < 3; i++ {
			if d.SendStart[i] < avail[i] {
				t.Fatalf("send %d before availability", i)
			}
			if i > 0 && d.SendStart[i] < d.SendEnd[i-1]-1e-9 {
				t.Fatalf("link not exclusive at %d", i)
			}
			if d.Finish[i] > d.Completion+1e-9 {
				t.Fatalf("finish beyond completion")
			}
		}
	})
}
