package dlt

import (
	"math"
	"math/rand/v2"
	"testing"
)

// OutputAwareExecTimeBound returns a safe upper bound on the completion of
// a single-round dispatch with result collection: the input-only
// completion plus the full serialised result traffic δ·σ·Cms. It bounds
// SimulateDispatchWithOutput's OutputCompletion for any partition, because
// the link can always drain all results within δ·σ·Cms once the last node
// finishes.
func OutputAwareExecTimeBound(inputCompletion float64, p Params, sigma, delta float64) float64 {
	return inputCompletion + delta*sigma*p.Cms
}

func TestOutputZeroDeltaReducesToDispatch(t *testing.T) {
	avail := []float64{0, 10, 300}
	alphas := baseline.Alphas(3)
	od, err := SimulateDispatchWithOutput(baseline, 150, 0, avail, alphas)
	if err != nil {
		t.Fatal(err)
	}
	d, err := SimulateDispatch(baseline, 150, avail, alphas)
	if err != nil {
		t.Fatal(err)
	}
	if od.OutputCompletion != d.Completion {
		t.Fatalf("δ=0 completion %v != input-only %v", od.OutputCompletion, d.Completion)
	}
	for i := range avail {
		if od.ResultStart[i] != od.ResultEnd[i] {
			t.Fatalf("δ=0 result transfer must be instantaneous")
		}
	}
}

func TestOutputDeltaValidation(t *testing.T) {
	avail := []float64{0}
	alphas := []float64{1}
	for _, delta := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := SimulateDispatchWithOutput(baseline, 1, delta, avail, alphas); err == nil {
			t.Fatalf("delta %v must be rejected", delta)
		}
	}
}

func TestOutputMonotoneInDelta(t *testing.T) {
	avail := []float64{0, 50, 200, 900}
	alphas := baseline.Alphas(4)
	prev := 0.0
	for _, delta := range []float64{0, 0.05, 0.2, 0.5, 1, 2} {
		od, err := SimulateDispatchWithOutput(baseline, 120, delta, avail, alphas)
		if err != nil {
			t.Fatal(err)
		}
		if od.OutputCompletion < prev {
			t.Fatalf("completion not monotone in δ at %v", delta)
		}
		prev = od.OutputCompletion
	}
}

func TestOutputLinkExclusive(t *testing.T) {
	// Result transfers must not overlap each other nor the input phase.
	avail := []float64{0, 0, 0, 0}
	alphas := baseline.Alphas(4)
	od, err := SimulateDispatchWithOutput(baseline, 200, 0.3, avail, alphas)
	if err != nil {
		t.Fatal(err)
	}
	inputEnd := od.SendEnd[len(od.SendEnd)-1]
	type iv struct{ s, e float64 }
	var ivs []iv
	for i := range avail {
		if od.ResultStart[i] < inputEnd-1e-9 {
			t.Fatalf("result %d started at %v during input phase ending %v",
				i, od.ResultStart[i], inputEnd)
		}
		if od.ResultStart[i] < od.Finish[i]-1e-9 {
			t.Fatalf("result %d sent before compute finished", i)
		}
		ivs = append(ivs, iv{od.ResultStart[i], od.ResultEnd[i]})
	}
	for a := range ivs {
		for b := range ivs {
			if a == b {
				continue
			}
			if ivs[a].s < ivs[b].e-1e-9 && ivs[b].s < ivs[a].e-1e-9 &&
				ivs[a].e-ivs[a].s > 1e-12 && ivs[b].e-ivs[b].s > 1e-12 {
				t.Fatalf("result transfers overlap: %v and %v", ivs[a], ivs[b])
			}
		}
	}
}

func TestOutputBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.IntN(12)
		avail := make([]float64, n)
		cur := 0.0
		for i := range avail {
			cur += 300 * rng.Float64()
			avail[i] = cur
		}
		sigma := 1 + 300*rng.Float64()
		delta := 2 * rng.Float64()
		alphas := baseline.Alphas(n)
		od, err := SimulateDispatchWithOutput(baseline, sigma, delta, avail, alphas)
		if err != nil {
			t.Fatal(err)
		}
		bound := OutputAwareExecTimeBound(od.Completion, baseline, sigma, delta)
		if od.OutputCompletion > bound*(1+1e-9) {
			t.Fatalf("output completion %v exceeds bound %v (n=%d δ=%v)",
				od.OutputCompletion, bound, n, delta)
		}
		if od.OutputCompletion < od.Completion-1e-9 {
			t.Fatalf("output completion %v below input completion %v",
				od.OutputCompletion, od.Completion)
		}
	}
}

func BenchmarkSimulateDispatchWithOutput16(b *testing.B) {
	avail := make([]float64, 16)
	for i := range avail {
		avail[i] = float64(i * 40)
	}
	alphas := baseline.Alphas(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateDispatchWithOutput(baseline, 200, 0.2, avail, alphas); err != nil {
			b.Fatal(err)
		}
	}
}
