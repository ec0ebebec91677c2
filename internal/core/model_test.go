package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"rtdls/internal/dlt"
)

var baseline = dlt.Params{Cms: 1, Cps: 100}

func almostEq(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: got %v, want %v (rel tol %v)", msg, got, want, tol)
	}
}

// randModel builds a model from a random but valid configuration.
func randModel(rng *rand.Rand) *Model {
	p := dlt.Params{Cms: 0.05 + 8*rng.Float64(), Cps: 0.5 + 800*rng.Float64()}
	sigma := 0.5 + 900*rng.Float64()
	n := 1 + rng.IntN(32)
	avail := make([]float64, n)
	cur := 1000 * rng.Float64()
	for i := range avail {
		avail[i] = cur
		// Gaps between availability times, occasionally zero and
		// occasionally comparable to the whole execution time.
		cur += rng.Float64() * rng.Float64() * p.ExecTime(sigma, n)
	}
	m, err := New(p, sigma, avail)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		p     dlt.Params
		sigma float64
		avail []float64
	}{
		{"bad params", dlt.Params{}, 1, []float64{0}},
		{"zero sigma", baseline, 0, []float64{0}},
		{"negative sigma", baseline, -2, []float64{0}},
		{"NaN sigma", baseline, math.NaN(), []float64{0}},
		{"Inf sigma", baseline, math.Inf(1), []float64{0}},
		{"empty avail", baseline, 1, nil},
		{"NaN avail", baseline, 1, []float64{0, math.NaN()}},
		{"Inf avail", baseline, 1, []float64{math.Inf(1)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.p, c.sigma, c.avail); err == nil {
				t.Fatalf("expected error")
			}
		})
	}
}

func TestNewSortsAndCopies(t *testing.T) {
	avail := []float64{30, 10, 20}
	m, err := New(baseline, 100, avail)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30}
	for i, v := range m.Avail() {
		if v != want[i] {
			t.Fatalf("Avail()[%d] = %v, want %v", i, v, want[i])
		}
	}
	if avail[0] != 30 {
		t.Fatalf("caller slice mutated: %v", avail)
	}
	if m.Rn() != 30 {
		t.Fatalf("Rn = %v, want 30", m.Rn())
	}
}

func TestSingleNodeDegenerates(t *testing.T) {
	m, err := New(baseline, 200, []float64{42})
	if err != nil {
		t.Fatal(err)
	}
	// n=1: no parallelism, no IIT — Ê = E = σ(Cms+Cps).
	almostEq(t, m.ExecTime(), 200*101, 1e-12, "Ê(σ,1)")
	almostEq(t, m.NoIITExecTime(), 200*101, 1e-12, "E(σ,1)")
	almostEq(t, m.EstCompletion(), 42+200*101, 1e-12, "completion")
	if a := m.Alphas(); len(a) != 1 || math.Abs(a[0]-1) > 1e-12 {
		t.Fatalf("Alphas = %v, want [1]", a)
	}
}

func TestEqualAvailTimesReduceToHomogeneous(t *testing.T) {
	// When every node is available at the same instant there are no IITs,
	// so the heterogeneous model must coincide with the classic homogeneous
	// optimum: Cps_i = Cps, α = homogeneous α, Ê = E.
	for _, n := range []int{1, 2, 4, 16, 64} {
		avail := make([]float64, n)
		for i := range avail {
			avail[i] = 7.5
		}
		m, err := New(baseline, 321, avail)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range m.CpsI() {
			almostEq(t, c, baseline.Cps, 1e-12, "CpsI homogeneous")
			_ = i
		}
		want := baseline.Alphas(n)
		for i, a := range m.Alphas() {
			almostEq(t, a, want[i], 1e-9, "alpha homogeneous")
		}
		almostEq(t, m.ExecTime(), m.NoIITExecTime(), 1e-9, "Ê == E")
	}
}

func TestCpsIStructure(t *testing.T) {
	m, err := New(baseline, 200, []float64{0, 100, 500, 1300})
	if err != nil {
		t.Fatal(err)
	}
	cps := m.CpsI()
	// Eq. 1: Cps_n = Cps exactly (the last node has no IIT).
	almostEq(t, cps[len(cps)-1], baseline.Cps, 1e-12, "Cps_n == Cps")
	for i, c := range cps {
		if c <= 0 || c > baseline.Cps*(1+1e-12) {
			t.Fatalf("CpsI[%d] = %v out of (0, Cps]", i, c)
		}
		if i > 0 && c < cps[i-1]-1e-12 {
			t.Fatalf("CpsI not non-decreasing at %d: %v < %v", i, c, cps[i-1])
		}
	}
	// Explicit Eq. 1 value for the first node.
	e := m.NoIITExecTime()
	almostEq(t, cps[0], e/(e+1300-0)*baseline.Cps, 1e-12, "Eq. 1 literal")
}

func TestAlphasArePartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 500; trial++ {
		m := randModel(rng)
		sum := 0.0
		for i, a := range m.Alphas() {
			if a <= 0 || a > 1+1e-12 {
				t.Fatalf("alpha[%d] = %v out of (0,1]", i, a)
			}
			sum += a
		}
		almostEq(t, sum, 1, 1e-9, "alphas sum to 1")
	}
}

// TestEq3Levels verifies the defining property of the partition (Eq. 3):
// every node of the heterogeneous model finishes at the same instant, i.e.
// for all i,  Σ_{j≤i} α_j·σ·Cms + α_i·σ·Cps_i == Ê.
func TestEq3Levels(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for trial := 0; trial < 300; trial++ {
		m := randModel(rng)
		alphas := m.Alphas()
		cps := m.CpsI()
		prefix := 0.0
		for i := range alphas {
			prefix += alphas[i] * m.Sigma() * m.Params().Cms
			level := prefix + alphas[i]*m.Sigma()*cps[i]
			almostEq(t, level, m.ExecTime(), 1e-7, "Eq. 3 level")
		}
	}
}

func TestEq9ExecAtMostNoIIT(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for trial := 0; trial < 1000; trial++ {
		m := randModel(rng)
		if !m.CheckEq9() {
			t.Fatalf("Eq. 9 violated: Ê=%v > E=%v (n=%d)", m.ExecTime(), m.NoIITExecTime(), m.N())
		}
	}
}

func TestEq9StrictWithIITs(t *testing.T) {
	// With a genuine IIT the estimate must strictly improve on E.
	m, err := New(baseline, 200, []float64{0, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !(m.ExecTime() < m.NoIITExecTime()) {
		t.Fatalf("expected strict improvement: Ê=%v, E=%v", m.ExecTime(), m.NoIITExecTime())
	}
}

func TestAssertionsAndLemma(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	for trial := 0; trial < 1000; trial++ {
		m := randModel(rng)
		if !m.CheckAssertion1() {
			t.Fatalf("Assertion 1 violated: alphas=%v", m.Alphas())
		}
		if !m.CheckLemma2() {
			t.Fatalf("Lemma 2 violated (n=%d)", m.N())
		}
		if !m.CheckAssertion3() {
			t.Fatalf("Assertion 3 violated (n=%d)", m.N())
		}
	}
}

// TestTheorem4 is the paper's central result: the actual completion of the
// partitioned subtasks in the homogeneous cluster, with its staggered
// starts and sequential link, never exceeds the heterogeneous-model
// estimate r_n + Ê.
func TestTheorem4(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	for trial := 0; trial < 2000; trial++ {
		m := randModel(rng)
		slack, ok := m.CheckTheorem4()
		if !ok {
			d, _ := m.Dispatch()
			t.Fatalf("Theorem 4 violated: actual %v > est %v (n=%d, slack=%v)",
				d.Completion, m.EstCompletion(), m.N(), slack)
		}
	}
}

// TestStartTogetherBoundsDispatch pins the two bounds the node search's
// anchored start rests on (rt.PlanContext.PlanMinNodes): no single-round
// dispatch on n nodes free from r_1 on finishes before r_1 + E(σ,n), the
// optimum of n nodes that start together, whatever the partition; and the
// model's own dispatch finishes by r_n + Ê (Theorem 4). It holds up to a
// thousand nodes and at both ends of β.
func TestStartTogetherBoundsDispatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(57, 58))
	params := []dlt.Params{
		baseline,
		{Cms: 1, Cps: 1e-3},   // β ≈ 1e-3: the link dominates
		{Cms: 1e-3, Cps: 1e4}, // β ≈ 1 − 1e-7: computation dominates
	}
	for trial := 0; trial < 600; trial++ {
		p := params[trial%len(params)]
		n := 1 + rng.IntN(1000)
		if trial%10 == 0 {
			n = 1000
		}
		sigma := 0.5 + 900*rng.Float64()
		e := p.ExecTime(sigma, n)
		avail := make([]float64, n)
		cur := 1000 * rng.Float64()
		for i := range avail {
			avail[i] = cur
			// Runs of equal times, and gaps that add up to about E; every
			// seventh trial starts all nodes together, where both bounds are
			// tight.
			if trial%7 > 0 && rng.IntN(3) > 0 {
				cur += 4 * rng.Float64() * e / float64(n)
			}
		}
		m, err := New(p, sigma, avail)
		if err != nil {
			t.Fatal(err)
		}
		d, err := m.Dispatch()
		if err != nil {
			t.Fatal(err)
		}
		lower := avail[0] + e
		if !leq(lower, d.Completion) || !leq(d.Completion, m.EstCompletion()) {
			t.Fatalf("trial %d (β=%v, n=%d): want r_1 + E %v <= dispatch %v <= r_n + Ê %v",
				trial, p.Beta(), n, lower, d.Completion, m.EstCompletion())
		}
		alphas := make([]float64, n)
		sum := 0.0
		for i := range alphas {
			alphas[i] = rng.Float64()
			sum += alphas[i]
		}
		for i := range alphas {
			alphas[i] /= sum
		}
		if d, err = dlt.SimulateDispatch(p, sigma, avail, alphas); err != nil {
			t.Fatal(err)
		}
		if !leq(lower, d.Completion) {
			t.Fatalf("trial %d (β=%v, n=%d): a random partition finishes at %v, before r_1 + E = %v",
				trial, p.Beta(), n, d.Completion, lower)
		}
	}
}

func TestTheorem4TightWhenNoIIT(t *testing.T) {
	// With equal availability the estimate is exact: slack == 0.
	avail := []float64{5, 5, 5, 5}
	m, err := New(baseline, 100, avail)
	if err != nil {
		t.Fatal(err)
	}
	slack, ok := m.CheckTheorem4()
	if !ok {
		t.Fatalf("theorem must hold")
	}
	almostEq(t, slack, 0, 1e-9, "estimate exact without IITs")
}

func TestDispatchStartsAtOwnAvailability(t *testing.T) {
	// The point of the construction: each node starts receiving data at (or
	// as soon after its own availability as the link allows), not at r_n.
	m, err := New(baseline, 200, []float64{0, 400, 800, 3000})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Dispatch()
	if err != nil {
		t.Fatal(err)
	}
	if d.SendStart[0] != 0 {
		t.Fatalf("first node should start immediately, got %v", d.SendStart[0])
	}
	if d.SendStart[1] >= m.Rn() {
		t.Fatalf("second node should start before r_n=%v, got %v", m.Rn(), d.SendStart[1])
	}
}

func TestAccessors(t *testing.T) {
	m, err := New(baseline, 200, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	if m.Sigma() != 200 {
		t.Fatalf("Sigma = %v", m.Sigma())
	}
	if m.Params() != baseline {
		t.Fatalf("Params = %+v", m.Params())
	}
	if m.EstCompletion() != m.Rn()+m.ExecTime() {
		t.Fatalf("EstCompletion inconsistent")
	}
}

// TestEstimateVsLargeGaps exercises numerically extreme IITs (gaps orders
// of magnitude beyond E) where Cps_i becomes very small.
func TestEstimateVsLargeGaps(t *testing.T) {
	m, err := New(baseline, 10, []float64{0, 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if !m.CheckEq9() {
		t.Fatalf("Eq. 9 must hold for extreme gaps")
	}
	if _, ok := m.CheckTheorem4(); !ok {
		t.Fatalf("Theorem 4 must hold for extreme gaps")
	}
	// The first node has an enormous IIT, so it should be handed almost all
	// of the load.
	if a := m.Alphas(); a[0] < 0.99 {
		t.Fatalf("expected node with huge IIT to take nearly all load, got α=%v", a)
	}
}
