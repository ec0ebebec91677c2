package driver

import (
	"fmt"
	"math"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/rt"
	"rtdls/internal/workload"
)

// referenceRun is the pre-redesign driver loop, kept verbatim as the
// ground truth: it drives an rt.Scheduler directly from the discrete-event
// engine, with no service layer in between. The equivalence test proves
// that Run — now a thin adapter over service.Service — reproduces its
// Result bit for bit.
func referenceRun(cfg Config) (*Result, error) {
	pol, err := rt.ParsePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	part, err := PartitionerFor(cfg.Algorithm, cfg.Rounds, nil)
	if err != nil {
		return nil, err
	}
	cm, err := cfg.CostModel()
	if err != nil {
		return nil, err
	}
	cl, err := cluster.NewHetero(cm.Costs())
	if err != nil {
		return nil, err
	}
	wp := cfg.Params()
	if len(cfg.NodeCosts) > 0 {
		wp = cm.Reference()
	}
	gen, err := workload.New(workload.Config{
		N: cfg.N, Params: wp,
		SystemLoad: cfg.SystemLoad, AvgSigma: cfg.AvgSigma,
		DCRatio: cfg.DCRatio, Horizon: cfg.Horizon, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	sched := rt.NewScheduler(cl, pol, part)
	res := &Result{Config: cfg, MaxLateness: math.Inf(-1)}
	var (
		s            = newRefSim()
		commitHandle refHandle
		runErr       error
		respSum      float64
		slackSum     float64
		nodeSum      int
	)
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	var rearmCommit func()
	onCommit := func() {
		plans, err := sched.CommitDue(s.Now())
		if err != nil {
			fail(err)
			return
		}
		for _, pl := range plans {
			actual := pl.Est
			if pl.Rounds <= 1 && !pl.SimultaneousStart {
				d, derr := cl.Costs().SimulateFor(pl.Nodes, pl.Task.Sigma, pl.Starts, pl.Alphas)
				if derr != nil {
					fail(fmt.Errorf("reference: dispatching task %d: %w", pl.Task.ID, derr))
					return
				}
				actual = d.Completion
			}
			res.Committed++
			respSum += actual - pl.Task.Arrival
			slackSum += pl.Est - actual
			nodeSum += len(pl.Nodes)
			if l := actual - pl.Task.AbsDeadline(); l > res.MaxLateness {
				res.MaxLateness = l
			}
		}
		rearmCommit()
	}
	rearmCommit = func() {
		commitHandle.Cancel()
		if at, ok := sched.NextCommit(); ok {
			commitHandle = s.AtPrio(at, prioCommit, onCommit)
		}
	}
	var onArrival func(t *rt.Task)
	scheduleNext := func() {
		if t, ok := gen.Next(); ok {
			s.AtPrio(t.Arrival, prioArrival, func() { onArrival(t) })
		}
	}
	onArrival = func(t *rt.Task) {
		res.Arrivals++
		accepted, err := sched.Submit(t, s.Now())
		if err != nil {
			fail(err)
			return
		}
		if accepted {
			res.Accepted++
		} else {
			res.Rejected++
		}
		rearmCommit()
		scheduleNext()
	}
	scheduleNext()
	for runErr == nil && s.Step() {
	}
	if runErr != nil {
		return nil, runErr
	}
	if res.Arrivals > 0 {
		res.RejectRatio = float64(res.Rejected) / float64(res.Arrivals)
	}
	if res.Committed > 0 {
		res.MeanResponse = respSum / float64(res.Committed)
		res.MeanEstSlack = slackSum / float64(res.Committed)
		res.MeanNodes = float64(nodeSum) / float64(res.Committed)
	} else {
		res.MaxLateness = 0
	}
	res.Span = math.Max(cfg.Horizon, cl.LastRelease())
	res.Utilization = cl.Utilization(res.Span)
	res.ReservedIdleFrac = cl.ReservedIdle() / (float64(cfg.N) * res.Span)
	res.MaxQueueLen = sched.Stats().MaxQueueLen
	return res, nil
}

// requireBitIdentical compares every metric field with exact equality —
// float64 bit patterns included.
func requireBitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	cmps := []struct {
		name        string
		want, got   float64
		exactInt    bool
		wantI, gotI int
	}{
		{name: "Arrivals", exactInt: true, wantI: want.Arrivals, gotI: got.Arrivals},
		{name: "Accepted", exactInt: true, wantI: want.Accepted, gotI: got.Accepted},
		{name: "Rejected", exactInt: true, wantI: want.Rejected, gotI: got.Rejected},
		{name: "Committed", exactInt: true, wantI: want.Committed, gotI: got.Committed},
		{name: "MaxQueueLen", exactInt: true, wantI: want.MaxQueueLen, gotI: got.MaxQueueLen},
		{name: "RejectRatio", want: want.RejectRatio, got: got.RejectRatio},
		{name: "MeanResponse", want: want.MeanResponse, got: got.MeanResponse},
		{name: "MeanNodes", want: want.MeanNodes, got: got.MeanNodes},
		{name: "MaxLateness", want: want.MaxLateness, got: got.MaxLateness},
		{name: "MeanEstSlack", want: want.MeanEstSlack, got: got.MeanEstSlack},
		{name: "Utilization", want: want.Utilization, got: got.Utilization},
		{name: "ReservedIdleFrac", want: want.ReservedIdleFrac, got: got.ReservedIdleFrac},
		{name: "Span", want: want.Span, got: got.Span},
	}
	for _, c := range cmps {
		if c.exactInt {
			if c.wantI != c.gotI {
				t.Errorf("%s: %s differs: reference %d, service adapter %d", label, c.name, c.wantI, c.gotI)
			}
			continue
		}
		if math.Float64bits(c.want) != math.Float64bits(c.got) {
			t.Errorf("%s: %s differs: reference %v (bits %x), service adapter %v (bits %x)",
				label, c.name, c.want, math.Float64bits(c.want), c.got, math.Float64bits(c.got))
		}
	}
}

// TestRunEquivalence proves the acceptance property of the 2.0 redesign:
// the legacy Run(Config) adapter reproduces the pre-redesign Result bit
// for bit for every algorithm, across seeds, loads and a heterogeneous
// cluster.
func TestRunEquivalence(t *testing.T) {
	type variant struct {
		label string
		mut   func(*Config)
	}
	variants := []variant{
		{"base", func(c *Config) {}},
		{"fifo-load0.9-seed7", func(c *Config) { c.Policy = "fifo"; c.SystemLoad = 0.9; c.Seed = 7 }},
		{"hetero-spread4", func(c *Config) { c.CpsSpread = 4; c.CmsSpread = 2; c.HeteroSeed = 3 }},
	}
	for _, alg := range Algorithms() {
		for _, v := range variants {
			cfg := Default()
			cfg.Algorithm = alg
			cfg.SystemLoad = 0.75
			cfg.Horizon = 1.5e5
			if alg == AlgDLTMR {
				cfg.Rounds = 3
			}
			v.mut(&cfg)
			label := alg + "/" + v.label
			want, err := referenceRun(cfg)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: Run: %v", label, err)
			}
			requireBitIdentical(t, label, want, got)
		}
	}
}

// TestRunEquivalenceExplicitCosts covers the explicit per-node cost table
// path, whose workload is calibrated against the table's own reference.
func TestRunEquivalenceExplicitCosts(t *testing.T) {
	costs, err := SpreadCosts(8, Default().Params(), 3, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.N = 8
	cfg.NodeCosts = costs
	cfg.SystemLoad = 0.8
	cfg.Horizon = 1e5
	want, err := referenceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "explicit-costs", want, got)
}
