package dlt

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// baseline is the paper's baseline cluster configuration.
var baseline = Params{Cms: 1, Cps: 100}

func almostEq(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: got %v, want %v (rel tol %v)", msg, got, want, tol)
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"baseline", baseline, true},
		{"tiny", Params{Cms: 1e-9, Cps: 1e-9}, true},
		{"zero Cms", Params{Cms: 0, Cps: 1}, false},
		{"zero Cps", Params{Cms: 1, Cps: 0}, false},
		{"negative Cms", Params{Cms: -1, Cps: 1}, false},
		{"negative Cps", Params{Cms: 1, Cps: -2}, false},
		{"NaN Cms", Params{Cms: math.NaN(), Cps: 1}, false},
		{"NaN Cps", Params{Cms: 1, Cps: math.NaN()}, false},
		{"Inf Cms", Params{Cms: math.Inf(1), Cps: 1}, false},
		{"Inf Cps", Params{Cms: 1, Cps: math.Inf(1)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate(%+v) error = %v, want ok=%v", c.p, err, c.ok)
			}
		})
	}
}

func TestBeta(t *testing.T) {
	almostEq(t, baseline.Beta(), 100.0/101.0, 1e-15, "beta baseline")
	almostEq(t, Params{Cms: 1, Cps: 1}.Beta(), 0.5, 1e-15, "beta symmetric")
	if b := baseline.Beta(); b <= 0 || b >= 1 {
		t.Fatalf("beta out of (0,1): %v", b)
	}
}

func TestUnitCost(t *testing.T) {
	almostEq(t, baseline.UnitCost(), 101, 1e-15, "unit cost")
}

func TestExecTimeSingleNode(t *testing.T) {
	// With one node there is no parallelism: E(σ,1) = σ(Cms+Cps).
	almostEq(t, baseline.ExecTime(200, 1), 200*101, 1e-12, "E(200,1)")
}

func TestExecTimeBaseline(t *testing.T) {
	// E(σ,n) = σ·Cms/(1-βⁿ); independently recompute via the α recursion:
	// the first chunk's send+compute time equals the whole execution time.
	for _, n := range []int{1, 2, 3, 4, 8, 16, 64, 256} {
		a := baseline.Alphas(n)
		want := a[0] * 200 * baseline.UnitCost()
		almostEq(t, baseline.ExecTime(200, n), want, 1e-10, "E vs alpha recursion")
	}
}

func TestExecTimeMonotonicInN(t *testing.T) {
	prev := math.Inf(1)
	for n := 1; n <= 128; n++ {
		e := baseline.ExecTime(200, n)
		if e >= prev {
			t.Fatalf("E(σ,n) not strictly decreasing at n=%d: %v >= %v", n, e, prev)
		}
		prev = e
	}
}

func TestExecTimeLinearInSigma(t *testing.T) {
	e1 := baseline.ExecTime(100, 16)
	e2 := baseline.ExecTime(200, 16)
	almostEq(t, e2, 2*e1, 1e-12, "E linear in sigma")
	if got := baseline.ExecTime(0, 16); got != 0 {
		t.Fatalf("E(0,n) = %v, want 0", got)
	}
}

func TestExecTimeLowerBoundedByCms(t *testing.T) {
	// Even with infinitely many nodes, the sequential transmission of the
	// whole input bounds E(σ,n) > σ·Cms.
	for _, n := range []int{1, 16, 1024} {
		if e := baseline.ExecTime(200, n); e <= 200*baseline.Cms {
			t.Fatalf("E(200,%d) = %v not > σCms = %v", n, e, 200*baseline.Cms)
		}
	}
}

func TestExecTimePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":        func() { baseline.ExecTime(1, 0) },
		"negative σ": func() { baseline.ExecTime(-1, 1) },
		"alphas n=0": func() { baseline.Alphas(0) },
		"equal n=0":  func() { EqualAlphas(0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestAlphasProperties(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 100} {
		a := baseline.Alphas(n)
		if len(a) != n {
			t.Fatalf("len(Alphas(%d)) = %d", n, len(a))
		}
		sum := 0.0
		beta := baseline.Beta()
		for i, v := range a {
			if v <= 0 || v > 1 {
				t.Fatalf("alpha[%d] = %v out of (0,1]", i, v)
			}
			if i > 0 {
				almostEq(t, v/a[i-1], beta, 1e-12, "geometric ratio")
			}
			sum += v
		}
		almostEq(t, sum, 1, 1e-10, "alphas sum")
	}
}

func TestEqualAlphas(t *testing.T) {
	a := EqualAlphas(4)
	for i, v := range a {
		almostEq(t, v, 0.25, 1e-15, "equal alpha")
		_ = i
	}
}

func TestSimulateDispatchErrors(t *testing.T) {
	cases := []struct {
		name   string
		p      Params
		sigma  float64
		avail  []float64
		alphas []float64
	}{
		{"no nodes", baseline, 1, nil, nil},
		{"len mismatch", baseline, 1, []float64{0, 1}, []float64{1}},
		{"unsorted", baseline, 1, []float64{2, 1}, []float64{0.5, 0.5}},
		{"negative alpha", baseline, 1, []float64{0, 1}, []float64{1.5, -0.5}},
		{"negative sigma", baseline, -1, []float64{0}, []float64{1}},
		{"NaN sigma", baseline, math.NaN(), []float64{0}, []float64{1}},
		{"bad params", Params{}, 1, []float64{0}, []float64{1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := SimulateDispatch(c.p, c.sigma, c.avail, c.alphas); err == nil {
				t.Fatalf("expected error")
			}
		})
	}
}

func TestDispatchOptimalPartitionFinishesSimultaneously(t *testing.T) {
	// The defining property of the optimal single-round partition: with all
	// nodes available at the same instant, every node finishes at exactly
	// E(σ,n).
	const sigma = 200.0
	for _, n := range []int{1, 2, 4, 16} {
		avail := make([]float64, n)
		for i := range avail {
			avail[i] = 50 // all available at t=50
		}
		d, err := SimulateDispatch(baseline, sigma, avail, baseline.Alphas(n))
		if err != nil {
			t.Fatal(err)
		}
		want := 50 + baseline.ExecTime(sigma, n)
		for i, f := range d.Finish {
			almostEq(t, f, want, 1e-10, "finish[i] simultaneous")
			_ = i
		}
		almostEq(t, d.Completion, want, 1e-10, "completion")
	}
}

func TestDispatchLinkSerialization(t *testing.T) {
	avail := []float64{0, 0, 0, 0}
	d, err := SimulateDispatch(baseline, 100, avail, EqualAlphas(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if d.SendStart[i] < d.SendEnd[i-1] {
			t.Fatalf("send %d started at %v before send %d ended at %v",
				i, d.SendStart[i], i-1, d.SendEnd[i-1])
		}
	}
	// With equal chunks and equal availability the link is saturated:
	// SendStart[i] == SendEnd[i-1].
	for i := 1; i < 4; i++ {
		almostEq(t, d.SendStart[i], d.SendEnd[i-1], 1e-12, "link saturated")
	}
}

func TestDispatchRespectsAvailability(t *testing.T) {
	avail := []float64{0, 1000, 2000}
	d, err := SimulateDispatch(baseline, 10, avail, EqualAlphas(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range avail {
		if d.SendStart[i] < avail[i] {
			t.Fatalf("node %d send started at %v before it was available at %v",
				i, d.SendStart[i], avail[i])
		}
	}
}

func TestDispatchZeroAlphaNode(t *testing.T) {
	// A node given no data finishes the moment its (empty) send completes.
	d, err := SimulateDispatch(baseline, 100, []float64{0, 5}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	almostEq(t, d.Finish[0], 100*baseline.UnitCost(), 1e-12, "loaded node")
	almostEq(t, d.Finish[1], math.Max(5, d.SendEnd[0]), 1e-12, "empty node")
}

func TestDispatchNegativeTimes(t *testing.T) {
	// Regression (found by FuzzModelInvariants): with all-negative
	// availability times the completion must still be the max finish, not
	// the zero value.
	d, err := SimulateDispatch(baseline, 1, []float64{-170, -77, -65, -48}, EqualAlphas(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Completion >= 0 {
		t.Fatalf("completion %v should be negative", d.Completion)
	}
	want := d.Finish[0]
	for _, f := range d.Finish {
		if f > want {
			want = f
		}
	}
	if d.Completion != want {
		t.Fatalf("completion %v != max finish %v", d.Completion, want)
	}
}

func TestUserSplitMatchesPaperRecurrence(t *testing.T) {
	// Cross-check UserSplitDispatch against a literal transcription of the
	// paper's Sec. 4.1.2 recurrence.
	p := baseline
	sigma := 137.0
	avail := []float64{3, 3, 90, 91, 400}
	n := len(avail)
	d, err := UserSplitDispatch(p, sigma, avail)
	if err != nil {
		t.Fatal(err)
	}
	chunkSend := sigma * p.Cms / float64(n)
	chunkComp := sigma * p.Cps / float64(n)
	s := make([]float64, n)
	s[0] = avail[0]
	for i := 1; i < n; i++ {
		s[i] = math.Max(avail[i], s[i-1]+chunkSend)
	}
	for i := 0; i < n; i++ {
		almostEq(t, d.SendStart[i], s[i], 1e-12, "send start recurrence")
		almostEq(t, d.Finish[i], s[i]+chunkSend+chunkComp, 1e-12, "finish recurrence")
	}
	almostEq(t, d.Completion, s[n-1]+chunkSend+chunkComp, 1e-12, "C = C_n")
}

func TestUserSplitCompletionIsLastNode(t *testing.T) {
	d, err := UserSplitDispatch(baseline, 55, []float64{0, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if d.Completion != d.Finish[len(d.Finish)-1] {
		t.Fatalf("user-split completion %v != last node finish %v",
			d.Completion, d.Finish[len(d.Finish)-1])
	}
}

func TestUserSplitMinNodes(t *testing.T) {
	// σ=200, D=2000: Nmin = ⌈200·100/(2000-200)⌉ = ⌈11.11⌉ = 12.
	n, ok := UserSplitMinNodes(baseline, 200, 2000)
	if !ok || n != 12 {
		t.Fatalf("got (%d,%v), want (12,true)", n, ok)
	}
	// Exactly integral quotient: σ=100, D=1100-? σCms=100, σCps=10000;
	// D=10100 → slack=10000 → 10000/10000 = 1 → Nmin=1.
	n, ok = UserSplitMinNodes(baseline, 100, 10100)
	if !ok || n != 1 {
		t.Fatalf("integral case: got (%d,%v), want (1,true)", n, ok)
	}
	// Deadline too tight for transmission alone.
	if _, ok := UserSplitMinNodes(baseline, 200, 200); ok {
		t.Fatalf("D == σCms should be infeasible")
	}
	if _, ok := UserSplitMinNodes(baseline, 200, 100); ok {
		t.Fatalf("D < σCms should be infeasible")
	}
	if _, ok := UserSplitMinNodes(baseline, 200, 0); ok {
		t.Fatalf("D = 0 should be infeasible")
	}
	if n, ok := UserSplitMinNodes(baseline, 0, 10); !ok || n != 1 {
		t.Fatalf("σ=0 should need 1 node, got (%d, %v)", n, ok)
	}
}

func TestUserSplitMinNodesSufficiency(t *testing.T) {
	// Starting immediately on an idle cluster with Nmin nodes must meet the
	// deadline: σCms + σCps/Nmin ≤ D.
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 500; trial++ {
		p := Params{Cms: 0.1 + 5*rng.Float64(), Cps: 1 + 500*rng.Float64()}
		sigma := 1 + 300*rng.Float64()
		d := sigma*p.Cms*(1+rng.Float64()) + sigma*p.Cps*rng.Float64()
		n, ok := UserSplitMinNodes(p, sigma, d)
		if !ok {
			continue
		}
		c := sigma*p.Cms + sigma*p.Cps/float64(n)
		if c > d*(1+1e-9) {
			t.Fatalf("Nmin=%d insufficient: completion %v > D %v (p=%+v σ=%v)", n, c, d, p, sigma)
		}
		// And Nmin is minimal: n-1 nodes must miss (when n > 1).
		if n > 1 {
			c := sigma*p.Cms + sigma*p.Cps/float64(n-1)
			if c <= d*(1-1e-9) {
				t.Fatalf("Nmin=%d not minimal: %d nodes already meet D (p=%+v σ=%v D=%v)", n, n-1, p, sigma, d)
			}
		}
	}
}

func TestMinNodesBoundKnownValues(t *testing.T) {
	// Baseline task: σ=200, slack=2718 (≈ 2·E(200,16)).
	n, ok := MinNodesBound(baseline, 200, 2718)
	if !ok {
		t.Fatalf("expected feasible")
	}
	// γ = 1-200/2718 = 0.92642..., β=100/101, ñ = ⌈ln γ/ln β⌉ = ⌈7.6786…⌉ = 8.
	if n != 8 {
		t.Fatalf("ñ_min = %d, want 8", n)
	}
}

func TestMinNodesBoundRejects(t *testing.T) {
	if _, ok := MinNodesBound(baseline, 200, 0); ok {
		t.Fatalf("slack=0 must be rejected")
	}
	if _, ok := MinNodesBound(baseline, 200, -5); ok {
		t.Fatalf("negative slack must be rejected")
	}
	// γ ≤ 0: slack ≤ σ·Cms.
	if _, ok := MinNodesBound(baseline, 200, 200); ok {
		t.Fatalf("slack = σCms must be rejected (γ=0)")
	}
	if _, ok := MinNodesBound(baseline, 200, 150); ok {
		t.Fatalf("slack < σCms must be rejected (γ<0)")
	}
	if _, ok := MinNodesBound(baseline, 200, math.NaN()); ok {
		t.Fatalf("NaN slack must be rejected")
	}
}

func TestMinNodesBoundHugeSlack(t *testing.T) {
	n, ok := MinNodesBound(baseline, 1e-9, 1e12)
	if !ok || n != 1 {
		t.Fatalf("huge slack should need one node, got (%d,%v)", n, ok)
	}
	if n, ok := MinNodesBound(baseline, 0, 10); !ok || n != 1 {
		t.Fatalf("σ=0 should need one node, got (%d,%v)", n, ok)
	}
}

// TestMinNodesBoundGuarantee is the load-bearing property: allocating ñ_min
// nodes with latest available time r_n (slack = deadline − r_n) satisfies
// E(σ,ñ_min) ≤ slack, hence the deadline is met even without using IITs.
func TestMinNodesBoundGuarantee(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(cmsU, cpsU, sigmaU, slackU uint32) bool {
		p := Params{
			Cms: 0.01 + float64(cmsU%10000)/100,   // (0.01, 100)
			Cps: 0.01 + float64(cpsU%1000000)/100, // (0.01, 10000)
		}
		sigma := 0.01 + float64(sigmaU%100000)/100
		slack := sigma*p.Cms*0.5 + float64(slackU%10000000)/10
		n, ok := MinNodesBound(p, sigma, slack)
		if !ok {
			// Must genuinely be infeasible: with unbounded nodes the best
			// possible time still exceeds the slack (E(σ,n) → σCms).
			return slack <= sigma*p.Cms
		}
		e := p.ExecTime(sigma, n)
		return e <= slack*(1+1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMinNodesBoundTightness: the bound should not be grossly loose — for
// n = ñ_min−1 the *bound's* inequality β^n ≤ γ must fail (that is what
// makes ñ_min the minimal integer satisfying the sufficient condition).
func TestMinNodesBoundTightness(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 1000; trial++ {
		p := Params{Cms: 0.1 + 3*rng.Float64(), Cps: 1 + 300*rng.Float64()}
		sigma := 1 + 500*rng.Float64()
		slack := sigma*p.Cms + sigma*p.Cps*rng.Float64()
		n, ok := MinNodesBound(p, sigma, slack)
		if !ok || n == 1 {
			continue
		}
		gamma := 1 - sigma*p.Cms/slack
		if math.Pow(p.Beta(), float64(n-1)) <= gamma*(1-1e-9) {
			t.Fatalf("ñ_min=%d not minimal: β^(n-1) already ≤ γ (p=%+v σ=%v slack=%v)",
				n, p, sigma, slack)
		}
	}
}

// TestDispatchCompletionMonotoneInAvail: delaying a node's availability can
// never finish the task earlier.
func TestDispatchCompletionMonotoneInAvail(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(12)
		avail := make([]float64, n)
		cur := 0.0
		for i := range avail {
			cur += 100 * rng.Float64()
			avail[i] = cur
		}
		alphas := EqualAlphas(n)
		d1, err := SimulateDispatch(baseline, 50, avail, alphas)
		if err != nil {
			t.Fatal(err)
		}
		avail[n-1] += 1 + 100*rng.Float64()
		d2, err := SimulateDispatch(baseline, 50, avail, alphas)
		if err != nil {
			t.Fatal(err)
		}
		if d2.Completion < d1.Completion-1e-9 {
			t.Fatalf("delaying a node improved completion: %v -> %v", d1.Completion, d2.Completion)
		}
	}
}

// legacyMinNodesBound is MinNodesBound as written before ln β became an
// argument: both logarithms taken on every evaluation.
func legacyMinNodesBound(p Params, sigma, slack float64) (int, bool) {
	if slack <= 0 || math.IsNaN(slack) {
		return 0, false
	}
	if sigma <= 0 {
		return 1, true
	}
	gamma := 1 - sigma*p.Cms/slack
	if gamma <= 0 {
		return 0, false
	}
	if gamma >= 1 {
		return 1, true
	}
	n := int(math.Ceil(math.Log(gamma)/math.Log(p.Beta()) - ceilGuard))
	return max(n, 1), true
}

// TestMinNodesBoundLnMatches: the bound that takes ln β returns what the
// two-logarithm bound returns, and so does MinNodesBound, over a sweep
// that reaches the numeric extremes — β → 1, slack just above σ·Cms (γ →
// 0), and bounds up to n = 10 000.
func TestMinNodesBoundLnMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 2))
	large := 0
	for trial := 0; trial < 20000; trial++ {
		p := Params{Cms: math.Pow(10, -9+11*rng.Float64()), Cps: math.Pow(10, -2+6*rng.Float64())}
		sigma := math.Pow(10, -3+7*rng.Float64())
		var slack float64
		switch trial % 4 {
		case 0: // anywhere, rejects included
			slack = sigma * p.Cms * 4 * rng.Float64()
		case 1: // just above σ·Cms
			slack = sigma * p.Cms * (1 + math.Pow(10, -15+14*rng.Float64()))
		case 2: // β → 1
			p.Cms = p.Cps * math.Pow(10, -12+10*rng.Float64())
			slack = sigma * p.Cms * (1 + 10*rng.Float64())
		case 3: // the slack at which the bound is n, for n up to 10 000
			n := 1 + rng.IntN(10000)
			slack = sigma * p.Cms / (1 - math.Pow(p.Beta(), float64(n))*(1+1e-6*(rng.Float64()-0.5)))
		}
		want, wantOK := legacyMinNodesBound(p, sigma, slack)
		got, ok := MinNodesBoundLn(p, math.Log(p.Beta()), sigma, slack)
		viaP, viaOK := MinNodesBound(p, sigma, slack)
		if got != want || ok != wantOK || viaP != want || viaOK != wantOK {
			t.Fatalf("p=%+v σ=%v slack=%v: MinNodesBoundLn (%d,%v), MinNodesBound (%d,%v), two logarithms (%d,%v)",
				p, sigma, slack, got, ok, viaP, viaOK, want, wantOK)
		}
		if want >= 1000 {
			large++
		}
	}
	if large < 1000 {
		t.Fatalf("only %d bounds of 1000 nodes or more", large)
	}
}
