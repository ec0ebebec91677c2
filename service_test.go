package rtdls_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"rtdls"
)

func TestServiceBaselineDefaults(t *testing.T) {
	svc, err := rtdls.New()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if n := svc.ShardCosts()[0].N(); n != 16 {
		t.Fatalf("default cluster size = %d, want 16", n)
	}
	if !svc.ShardCosts()[0].Uniform() {
		t.Fatalf("default cost model should be uniform")
	}
	dec, err := svc.Submit(context.Background(), rtdls.Task{ID: 1, Sigma: 200, RelDeadline: 2800})
	if err != nil || !dec.Accepted {
		t.Fatalf("Submit = %+v, %v", dec, err)
	}
}

func TestServiceOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []rtdls.Option
	}{
		{"bad nodes", []rtdls.Option{rtdls.WithNodes(0)}},
		{"bad algorithm", []rtdls.Option{rtdls.WithAlgorithm("bogus")}},
		{"bad rounds", []rtdls.Option{rtdls.WithRounds(0)}},
		{"nil clock", []rtdls.Option{rtdls.WithClock(nil)}},
		{"bad params", []rtdls.Option{rtdls.WithParams(rtdls.Params{Cms: -1, Cps: 100})}},
		{"empty node costs", []rtdls.Option{rtdls.WithNodeCosts(nil)}},
		{"negative max queue", []rtdls.Option{rtdls.WithMaxQueue(-1)}},
	}
	for _, c := range cases {
		if _, err := rtdls.New(c.opts...); !errors.Is(err, rtdls.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", c.name, err)
		}
	}
}

// TestWithPolicyRejectsUnknown: a Policy value other than EDF or FIFO is a
// configuration error, not a silent EDF engine.
func TestWithPolicyRejectsUnknown(t *testing.T) {
	if _, err := rtdls.New(rtdls.WithPolicy(rtdls.Policy(7))); !errors.Is(err, rtdls.ErrBadConfig) {
		t.Errorf("New: err = %v, want ErrBadConfig", err)
	}
	w := rtdls.Workload{SystemLoad: 0.5, AvgSigma: 200, DCRatio: 2, Horizon: 1e4, Seed: 1}
	if _, err := rtdls.Simulate(w, rtdls.WithPolicy(rtdls.Policy(7))); !errors.Is(err, rtdls.ErrBadConfig) {
		t.Errorf("Simulate: err = %v, want ErrBadConfig", err)
	}
}

func TestServiceTypedErrors(t *testing.T) {
	svc, err := rtdls.New(rtdls.WithClock(rtdls.NewManualClock(1000)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	dec, err := svc.Submit(ctx, rtdls.Task{ID: 1, Arrival: 10, Sigma: 10, RelDeadline: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dec.Reason, rtdls.ErrDeadlinePast) {
		t.Fatalf("reason = %v, want ErrDeadlinePast", dec.Reason)
	}

	dec, err = svc.Submit(ctx, rtdls.Task{ID: 2, Sigma: 1e9, RelDeadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dec.Reason, rtdls.ErrInfeasible) {
		t.Fatalf("reason = %v, want ErrInfeasible", dec.Reason)
	}

	if _, err := svc.Submit(ctx, rtdls.Task{ID: 3, Sigma: 0, RelDeadline: 1}); !errors.Is(err, rtdls.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}

	svc.Close()
	if _, err := svc.Submit(ctx, rtdls.Task{ID: 4, Sigma: 10, RelDeadline: 1e6}); !errors.Is(err, rtdls.ErrClusterBusy) {
		t.Fatalf("err after close = %v, want ErrClusterBusy", err)
	}
}

// TestServiceConcurrentSubmitRace is the acceptance stress test: ≥ 8
// goroutines submit concurrently under -race, decision totals must equal
// arrivals, and an independent Verifier re-checks every commitment
// (no node overlap, Theorem-4 safety, no deadline misses).
func TestServiceConcurrentSubmitRace(t *testing.T) {
	verifier := rtdls.NewVerifier(rtdls.Params{Cms: 1, Cps: 100}, 16)
	svc, err := rtdls.New(
		rtdls.WithNodes(16),
		rtdls.WithParams(rtdls.Params{Cms: 1, Cps: 100}),
		rtdls.WithPolicy(rtdls.EDF),
		rtdls.WithAlgorithm(rtdls.AlgDLTIIT),
		rtdls.WithObserver(verifier),
	)
	if err != nil {
		t.Fatal(err)
	}

	sub := svc.Subscribe(1 << 15)
	streamed := make(chan [3]int, 1)
	go func() {
		var n [3]int
		for ev := range sub.C() {
			n[ev.Kind]++
		}
		streamed <- n
	}()

	const (
		workers = 10
		each    = 120
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
		rejected int
	)
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			la, lr := 0, 0
			for i := 0; i < each; i++ {
				id := int64(w*each + i + 1)
				dec, err := svc.Submit(ctx, rtdls.Task{
					ID:          id,
					Sigma:       20 + float64((id*37)%400),
					RelDeadline: 1500 + float64((id*91)%8000),
				})
				if err != nil {
					t.Errorf("worker %d task %d: %v", w, id, err)
					return
				}
				if dec.Accepted {
					la++
				} else {
					lr++
				}
			}
			mu.Lock()
			accepted += la
			rejected += lr
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	svc.Close()
	sub.Cancel()
	n := <-streamed

	if st.Arrivals != workers*each {
		t.Fatalf("arrivals = %d, want %d", st.Arrivals, workers*each)
	}
	if accepted+rejected != st.Arrivals || st.Accepts != accepted || st.Rejects != rejected {
		t.Fatalf("decision totals %d+%d disagree with stats %+v", accepted, rejected, st)
	}
	if st.Commits != st.Accepts || st.QueueLen != 0 {
		t.Fatalf("drain incomplete: %+v", st)
	}
	if st.EventsDropped == 0 {
		total := n[rtdls.EventAccept] + n[rtdls.EventReject] + n[rtdls.EventCommit]
		if want := st.Accepts + st.Rejects + st.Commits; total != want {
			t.Fatalf("stream saw %d events, want %d", total, want)
		}
	}
	if !verifier.OK() {
		t.Fatalf("verifier found violations:\n%s", verifier.Report())
	}
	if st.Utilization < 0 || st.Utilization > 1 {
		t.Fatalf("utilization = %v", st.Utilization)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	// The 1.x Run shim is gone; bit-for-bit equivalence of the service
	// replay against the pre-redesign reference loop lives in
	// internal/driver's equivalence tests. Here we pin the public surface:
	// the same workload and seed reproduce the identical Result.
	w := rtdls.Workload{SystemLoad: 0.7, AvgSigma: 200, DCRatio: 2, Horizon: 1e5, Seed: 1}
	want, err := rtdls.Simulate(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rtdls.Simulate(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(want.RejectRatio) != math.Float64bits(got.RejectRatio) ||
		want.Arrivals != got.Arrivals ||
		math.Float64bits(want.MeanResponse) != math.Float64bits(got.MeanResponse) ||
		math.Float64bits(want.Utilization) != math.Float64bits(got.Utilization) {
		t.Fatalf("Simulate not deterministic:\n 1st: %+v\n 2nd: %+v", want, got)
	}
	if want.Arrivals == 0 {
		t.Fatalf("workload produced no arrivals: %+v", want)
	}
}

func TestSimulateSeries(t *testing.T) {
	w := rtdls.BaselineWorkload()
	w.Horizon = 5e4
	rs, err := rtdls.SimulateSeries(w, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results", len(rs))
	}
	if rs[0].Config.SystemLoad != 0.2 || rs[1].Config.SystemLoad != 0.8 {
		t.Fatalf("loads not applied")
	}
}

func TestCostModelFor(t *testing.T) {
	cm, err := rtdls.CostModelFor(rtdls.WithNodes(8), rtdls.WithCostSpread(1, 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	if cm.N() != 8 || cm.Uniform() {
		t.Fatalf("cost model = %d nodes, uniform=%v", cm.N(), cm.Uniform())
	}
	// The service built from the same options schedules against the same
	// table, so a verifier constructed from CostModelFor matches it.
	svc, err := rtdls.New(rtdls.WithNodes(8), rtdls.WithCostSpread(1, 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < cm.N(); i++ {
		if svc.ShardCosts()[0].At(i) != cm.At(i) {
			t.Fatalf("node %d: service %+v != CostModelFor %+v", i, svc.ShardCosts()[0].At(i), cm.At(i))
		}
	}
}

func TestServiceWallClockSmoke(t *testing.T) {
	// 1e9 units/second: the ~2550-unit task windows of the baseline pass
	// in microseconds, so commits happen naturally during the loop.
	svc, err := rtdls.New(rtdls.WithClock(rtdls.NewWallClock(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	acc := 0
	for i := 0; i < 50; i++ {
		dec, err := svc.Submit(ctx, rtdls.Task{ID: int64(i + 1), Sigma: 100, RelDeadline: 1e7})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Accepted {
			acc++
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Accepts != acc || st.Arrivals != 50 {
		t.Fatalf("stats = %+v, accepted %d", st, acc)
	}
}
