package rtdls_test

import (
	"context"
	"math"
	"testing"

	"rtdls"
)

func TestFacadeSimulate(t *testing.T) {
	w := rtdls.BaselineWorkload()
	w.Horizon = 2e5
	w.SystemLoad = 0.6
	r, err := rtdls.Simulate(w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrivals == 0 || r.RejectRatio < 0 || r.RejectRatio > 1 {
		t.Fatalf("bad result: %+v", r)
	}
}

// TestFacadeObserverFlow: a legacy observer installed with WithObserver
// sees the accept and, once the transmission is due, the commit.
func TestFacadeObserverFlow(t *testing.T) {
	ring := rtdls.NewTraceRing(16)
	svc, err := rtdls.New(rtdls.WithNodes(16), rtdls.WithParams(rtdls.Params{Cms: 1, Cps: 100}),
		rtdls.WithAlgorithm(rtdls.AlgDLTIIT), rtdls.WithObserver(ring))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	d, err := svc.Submit(context.Background(), rtdls.Task{ID: 1, Sigma: 200, RelDeadline: 2718})
	if err != nil || !d.Accepted {
		t.Fatalf("Submit = %+v, %v", d, err)
	}
	if err := svc.Pump(); err != nil {
		t.Fatal(err)
	}
	if ring.Accepts() != 1 || ring.Commits() != 1 {
		t.Fatalf("trace ring saw %d/%d", ring.Accepts(), ring.Commits())
	}
	if _, err := rtdls.New(rtdls.WithAlgorithm("bogus")); err == nil {
		t.Fatalf("unknown algorithm must fail")
	}
}

func TestFacadeModel(t *testing.T) {
	m, err := rtdls.NewModel(rtdls.Params{Cms: 1, Cps: 100}, 200, []float64{0, 500})
	if err != nil {
		t.Fatal(err)
	}
	if !(m.ExecTime() < m.NoIITExecTime()) {
		t.Fatalf("model should utilise the IIT")
	}
	n, ok := rtdls.MinNodesBound(rtdls.Params{Cms: 1, Cps: 100}, 200, 2718)
	if !ok || n != 8 {
		t.Fatalf("MinNodesBound = %d, %v", n, ok)
	}
}

func TestFacadeGenerator(t *testing.T) {
	g, err := rtdls.NewGenerator(rtdls.WorkloadConfig{
		N: 16, Params: rtdls.Params{Cms: 1, Cps: 100},
		SystemLoad: 0.5, AvgSigma: 200, DCRatio: 2, Horizon: 1e5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	task, ok := g.Next()
	if !ok || task.Sigma <= 0 {
		t.Fatalf("generator produced nothing useful")
	}
}

func TestFacadeMultiRound(t *testing.T) {
	finish, completion, err := rtdls.MultiRoundSchedule(
		rtdls.Params{Cms: 1, Cps: 100}, 100,
		[]float64{0, 0}, []float64{0.5, 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(finish) != 2 || completion <= 0 || math.IsNaN(completion) {
		t.Fatalf("bad timeline: %v %v", finish, completion)
	}
}

func TestFacadePanels(t *testing.T) {
	panels := rtdls.AllPanels()
	if len(panels) < 60 {
		t.Fatalf("panel inventory too small: %d", len(panels))
	}
	p := panels[0]
	p.Loads = []float64{0.5}
	opts := rtdls.DefaultPanelOptions()
	opts.Horizon = 1e5
	opts.Runs = 2
	r, err := rtdls.RunPanel(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 1 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	algs := rtdls.Algorithms()
	if len(algs) != 5 {
		t.Fatalf("algorithms = %v", algs)
	}
}
