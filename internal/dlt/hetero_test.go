package dlt

import (
	"math"
	"math/rand/v2"
	"testing"
)

// uniformCostsSlice returns n copies of the scalar pair p.
func uniformCostsSlice(p Params, n int) []NodeCost {
	cs := make([]NodeCost, n)
	for i := range cs {
		cs[i] = NodeCost{Cms: p.Cms, Cps: p.Cps}
	}
	return cs
}

func randomCosts(rng *rand.Rand, n int) []NodeCost {
	cs := make([]NodeCost, n)
	for i := range cs {
		cs[i] = NodeCost{
			Cms: math.Exp(rng.Float64()*4 - 2),    // ~[0.14, 7.4]
			Cps: math.Exp(rng.Float64()*4-2) * 50, // ~[7, 370]
		}
	}
	return cs
}

func TestNodeCostValidate(t *testing.T) {
	cases := []struct {
		name string
		c    NodeCost
		ok   bool
	}{
		{"baseline", NodeCost{Cms: 1, Cps: 100}, true},
		{"zero Cms (free link)", NodeCost{Cms: 0, Cps: 100}, true},
		{"zero Cps", NodeCost{Cms: 1, Cps: 0}, false},
		{"negative Cms", NodeCost{Cms: -1, Cps: 1}, false},
		{"NaN Cps", NodeCost{Cms: 1, Cps: math.NaN()}, false},
		{"inf Cms", NodeCost{Cms: math.Inf(1), Cps: 1}, false},
	}
	for _, c := range cases {
		if err := c.c.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCostModelUniformDetection(t *testing.T) {
	cm, err := UniformCosts(baseline, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !cm.Uniform() {
		t.Fatalf("UniformCosts model must report Uniform")
	}
	if got := cm.Reference(); got != baseline {
		t.Fatalf("uniform Reference = %v, want the exact scalar pair %v", got, baseline)
	}

	cm2, err := NewCostModel(uniformCostsSlice(baseline, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !cm2.Uniform() {
		t.Fatalf("NewCostModel over equal entries must report Uniform")
	}
	if got := cm2.Reference(); got != baseline {
		t.Fatalf("Reference = %v, want bit-identical %v", got, baseline)
	}

	costs := uniformCostsSlice(baseline, 5)
	costs[3].Cps = 200
	cm3, err := NewCostModel(costs)
	if err != nil {
		t.Fatal(err)
	}
	if cm3.Uniform() {
		t.Fatalf("non-equal entries must not report Uniform")
	}

	// A uniform zero-Cms table cannot use the homogeneous closed forms
	// (β would be 1) and must stay on the general path.
	cm4, err := NewCostModel(uniformCostsSlice(Params{Cms: 0, Cps: 100}, 3))
	if err == nil && cm4.Uniform() {
		t.Fatalf("uniform zero-Cms model must not claim the closed-form path")
	}
}

func TestCostModelSelectAndFastest(t *testing.T) {
	costs := []NodeCost{{1, 100}, {2, 50}, {0.5, 400}, {3, 10}}
	cm, err := NewCostModel(costs)
	if err != nil {
		t.Fatal(err)
	}
	sel := cm.SelectInto(nil, []int{3, 0})
	if sel[0] != costs[3] || sel[1] != costs[0] {
		t.Fatalf("Select order broken: %v", sel)
	}
	if again := cm.SelectInto(sel, []int{2}); len(again) != 1 || again[0] != costs[2] || &again[0] != &sel[0] {
		t.Fatalf("SelectInto did not reuse dst: %v", again)
	}
	if f := cm.Fastest(); f != (NodeCost{Cms: 0.5, Cps: 10}) {
		t.Fatalf("Fastest = %v, want componentwise minima", f)
	}
	ref := cm.Reference()
	almostEq(t, ref.Cms, (1+2+0.5+3)/4, 1e-12, "reference Cms")
	almostEq(t, ref.Cps, (100+50+400+10)/4, 1e-12, "reference Cps")
}

// TestHeteroAlphasUniformMatchesClosedForm checks the homogeneous special
// case: the generalised recurrence must reproduce the geometric closed
// form of Params.Alphas.
func TestHeteroAlphasUniformMatchesClosedForm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16, 64} {
		want := baseline.Alphas(n)
		got, err := HeteroAlphas(uniformCostsSlice(baseline, n))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			almostEq(t, got[i], want[i], 1e-12, "alpha")
		}
		e, err := HeteroExecTime(uniformCostsSlice(baseline, n), 200)
		if err != nil {
			t.Fatal(err)
		}
		almostEq(t, e, baseline.ExecTime(200, n), 1e-12, "exec time")
	}
}

// TestHeteroAlphasSimultaneousFinish verifies the defining property of the
// optimal partition: dispatched to simultaneously available nodes, every
// node finishes at the same instant, and that instant is HeteroExecTime.
func TestHeteroAlphasSimultaneousFinish(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(12)
		costs := randomCosts(rng, n)
		sigma := math.Exp(rng.Float64()*6 - 1)
		alphas, err := HeteroAlphas(costs)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, a := range alphas {
			if !(a > 0) {
				t.Fatalf("non-positive alpha %v", a)
			}
			sum += a
		}
		almostEq(t, sum, 1, 1e-9, "alphas sum")

		d, err := SimulateDispatchHetero(costs, sigma, make([]float64, n), alphas)
		if err != nil {
			t.Fatal(err)
		}
		e, err := HeteroExecTime(costs, sigma)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range d.Finish {
			almostEq(t, f, e, 1e-9, "finish time of node "+itoa(i))
		}
	}
}

// TestHeteroAlphasOptimality perturbs the partition: moving load between
// two nodes must never lower the makespan below the optimum.
func TestHeteroAlphasOptimality(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.IntN(8)
		costs := randomCosts(rng, n)
		sigma := 100.0
		alphas, err := HeteroAlphas(costs)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := HeteroExecTime(costs, sigma)
		if err != nil {
			t.Fatal(err)
		}
		i, j := rng.IntN(n), rng.IntN(n)
		if i == j {
			continue
		}
		eps := alphas[i] * 0.1
		pert := append([]float64(nil), alphas...)
		pert[i] -= eps
		pert[j] += eps
		d, err := SimulateDispatchHetero(costs, sigma, make([]float64, n), pert)
		if err != nil {
			t.Fatal(err)
		}
		if d.Completion < opt*(1-1e-9) {
			t.Fatalf("perturbed makespan %v beats optimum %v", d.Completion, opt)
		}
	}
}

// TestSimulateDispatchHeteroUniformBitIdentical checks that the
// heterogeneous simulator with a uniform cost table reproduces the
// homogeneous simulator exactly — the same floating-point operations in
// the same order.
func TestSimulateDispatchHeteroUniformBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(10)
		avail := make([]float64, n)
		acc := 0.0
		for i := range avail {
			acc += rng.Float64() * 100
			avail[i] = acc
		}
		alphas := make([]float64, n)
		for i := range alphas {
			alphas[i] = rng.Float64()
		}
		sigma := rng.Float64() * 500
		want, err := SimulateDispatch(baseline, sigma, avail, alphas)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimulateDispatchHetero(uniformCostsSlice(baseline, n), sigma, avail, alphas)
		if err != nil {
			t.Fatal(err)
		}
		if got.Completion != want.Completion {
			t.Fatalf("completion differs: %v vs %v", got.Completion, want.Completion)
		}
		for i := 0; i < n; i++ {
			if got.SendStart[i] != want.SendStart[i] || got.SendEnd[i] != want.SendEnd[i] || got.Finish[i] != want.Finish[i] {
				t.Fatalf("node %d timeline differs: %+v vs %+v", i, got, want)
			}
		}
	}
}

// TestHeteroMinNodesBoundSound checks the bound's two guarantees: when it
// reports infeasible the task is infeasible on any subset (the optimistic
// uniform cluster is at least as fast), and the returned count never
// exceeds the count at which the optimistic cluster itself fits the slack.
func TestHeteroMinNodesBoundSound(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(16)
		costs := randomCosts(rng, n)
		cm, err := NewCostModel(costs)
		if err != nil {
			t.Fatal(err)
		}
		sigma := math.Exp(rng.Float64() * 5)
		slack := math.Exp(rng.Float64() * 9)
		b, ok := HeteroMinNodesBound(cm, sigma, slack)
		fast := cm.Fastest().Params()
		if !ok {
			// Infeasible even with the fastest coefficients: the pure
			// transmission floor must exceed the slack.
			if slack > sigma*fast.Cms*(1+1e-9) {
				t.Fatalf("rejected although optimistic transmission fits: slack=%v σCms=%v", slack, sigma*fast.Cms)
			}
			continue
		}
		if b < 1 {
			t.Fatalf("bound %d < 1", b)
		}
		if b > 1<<32 {
			continue
		}
		if e := fast.ExecTime(sigma, b); e > slack*(1+1e-6) {
			t.Fatalf("optimistic E(σ,%d)=%v exceeds slack %v", b, e, slack)
		}
		// The real heterogeneous cluster is at least as slow as the
		// optimistic one: any real subset of fewer than b nodes must also
		// exceed the slack whenever the optimistic cluster does at b−1.
		if b > 1 && b-1 <= n {
			if eOpt := fast.ExecTime(sigma, b-1); eOpt <= slack {
				t.Fatalf("bound not minimal for the optimistic cluster: E(σ,%d)=%v fits slack %v", b-1, eOpt, slack)
			}
		}
	}
}

// TestHeteroExecTimeDominatesOptimistic: the real mixed-speed cluster can
// never beat the uniform cluster built from its componentwise-fastest
// coefficients — the fact HeteroMinNodesBound relies on.
func TestHeteroExecTimeDominatesOptimistic(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(10)
		costs := randomCosts(rng, n)
		cm, err := NewCostModel(costs)
		if err != nil {
			t.Fatal(err)
		}
		sigma := 100.0
		e, err := HeteroExecTime(costs, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if eOpt := cm.Fastest().Params().ExecTime(sigma, n); e < eOpt*(1-1e-9) {
			t.Fatalf("hetero E=%v beats optimistic uniform E=%v", e, eOpt)
		}
	}
}

// TestHeteroDegenerateNodes covers the degenerate ends of the
// heterogeneity range: a single node, a free link (Cms = 0) and a
// near-zero-bandwidth link (astronomical Cms).
func TestHeteroDegenerateNodes(t *testing.T) {
	// One node: the whole load, exec = σ(Cms+Cps).
	one := []NodeCost{{Cms: 2, Cps: 30}}
	alphas, err := HeteroAlphas(one)
	if err != nil {
		t.Fatal(err)
	}
	if len(alphas) != 1 || alphas[0] != 1 {
		t.Fatalf("single-node partition = %v, want [1]", alphas)
	}
	e, err := HeteroExecTime(one, 10)
	if err != nil {
		t.Fatal(err)
	}
	almostEq(t, e, 10*(2+30), 1e-12, "single-node exec")

	// Free link: valid partition, node 0 receives instantly.
	free := []NodeCost{{Cms: 0, Cps: 100}, {Cms: 1, Cps: 100}, {Cms: 2, Cps: 50}}
	alphas, err = HeteroAlphas(free)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, a := range alphas {
		if !(a > 0) {
			t.Fatalf("free-link partition has non-positive alpha: %v", alphas)
		}
		sum += a
	}
	almostEq(t, sum, 1, 1e-9, "free-link alphas sum")
	d, err := SimulateDispatchHetero(free, 50, []float64{0, 0, 0}, alphas)
	if err != nil {
		t.Fatal(err)
	}
	if d.SendEnd[0] != d.SendStart[0] {
		t.Fatalf("free link must transmit instantly: send [%v, %v]", d.SendStart[0], d.SendEnd[0])
	}

	// Near-zero bandwidth: the stalled link starves everything behind it,
	// and the optimal partition responds by starving the slow node.
	choked := []NodeCost{{Cms: 1, Cps: 100}, {Cms: 1e9, Cps: 100}, {Cms: 1, Cps: 100}}
	alphas, err = HeteroAlphas(choked)
	if err != nil {
		t.Fatal(err)
	}
	if alphas[1] >= alphas[0]*1e-3 {
		t.Fatalf("choked node should receive a vanishing share: %v", alphas)
	}
	if _, err := SimulateDispatchHetero(choked, 50, []float64{0, 0, 0}, alphas); err != nil {
		t.Fatal(err)
	}
}

// FuzzHeteroAlphas fuzzes the generalised partition over three nodes:
// validity, the simultaneous-finish property and agreement between
// HeteroExecTime and the simulated makespan.
func FuzzHeteroAlphas(f *testing.F) {
	f.Add(1.0, 100.0, 2.0, 50.0, 0.5, 400.0, 200.0)
	f.Add(0.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0)
	f.Fuzz(func(t *testing.T, cms1, cps1, cms2, cps2, cms3, cps3, sigma float64) {
		costs := []NodeCost{{cms1, cps1}, {cms2, cps2}, {cms3, cps3}}
		for _, c := range costs {
			if c.Validate() != nil {
				t.Skip()
			}
			if c.Cms > 1e9 || c.Cps > 1e9 || c.Cps < 1e-9 {
				t.Skip()
			}
		}
		if !(sigma > 0) || sigma > 1e9 {
			t.Skip()
		}
		alphas, err := HeteroAlphas(costs)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, a := range alphas {
			if math.IsNaN(a) || a < 0 {
				t.Fatalf("invalid alpha %v", a)
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("alphas sum to %v", sum)
		}
		e, err := HeteroExecTime(costs, sigma)
		if err != nil {
			t.Fatal(err)
		}
		d, err := SimulateDispatchHetero(costs, sigma, []float64{0, 0, 0}, alphas)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d.Completion-e) > 1e-6*math.Max(1, e) {
			t.Fatalf("simulated makespan %v != closed-form %v", d.Completion, e)
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
