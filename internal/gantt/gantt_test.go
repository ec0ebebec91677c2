package gantt

import (
	"context"
	"strings"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

var baseline = dlt.Params{Cms: 1, Cps: 100}

func TestCollectorRecordsCommits(t *testing.T) {
	c := NewCollector(4)
	p := &rt.Plan{
		Task:    &rt.Task{ID: 0, Sigma: 10, RelDeadline: 1e6},
		Nodes:   []int{0, 2},
		Starts:  []float64{0, 100},
		Release: []float64{500, 500},
		Alphas:  []float64{0.6, 0.4},
	}
	c.OnCommit(0, p)
	if c.Intervals() != 2 {
		t.Fatalf("intervals = %d", c.Intervals())
	}
	out := c.Render(0, 500, 50)
	if !strings.Contains(out, "P1") || !strings.Contains(out, "P4") {
		t.Fatalf("missing node rows:\n%s", out)
	}
	if !strings.ContainsRune(out, 'a') {
		t.Fatalf("task label missing:\n%s", out)
	}
	// Node P2 (index 1) must be empty.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "P2") && strings.ContainsAny(line, "abcdefghijklmnopqrstuvwxyz.") {
			t.Fatalf("unused node shows occupation: %s", line)
		}
	}
}

func TestReservedIdleRendersDots(t *testing.T) {
	c := NewCollector(2)
	p := &rt.Plan{
		Task:         &rt.Task{ID: 1, Sigma: 10, RelDeadline: 1e6},
		Nodes:        []int{0, 1},
		Starts:       []float64{0, 400},
		Release:      []float64{800, 800},
		Alphas:       []float64{0.5, 0.5},
		ReservedIdle: 400, // OPR-style: node 0 held idle until rn=400
	}
	c.OnCommit(0, p)
	out := c.Render(0, 800, 80)
	if !strings.Contains(out, ".") {
		t.Fatalf("reserved idle not rendered:\n%s", out)
	}
}

func TestRenderDefaults(t *testing.T) {
	c := NewCollector(1)
	// Degenerate calls must not panic.
	_ = c.Render(0, 0, 0)
	c.OnCommit(0, &rt.Plan{
		Task:    &rt.Task{ID: 2, Sigma: 1, RelDeadline: 10},
		Nodes:   []int{0},
		Starts:  []float64{0},
		Release: []float64{10},
		Alphas:  []float64{1},
	})
	out := c.Render(0, 0, 40) // to ≤ from: falls back to maxTime
	if !strings.ContainsRune(out, 'c') {
		t.Fatalf("fallback range missed the interval:\n%s", out)
	}
}

// TestEndToEndTimelines drives real admission services, with the
// Collector installed as their observer, and checks the visual signature:
// under OPR the chart contains reserved-idle dots, under IIT-DLT it never
// does.
func TestEndToEndTimelines(t *testing.T) {
	run := func(part rt.Partitioner) string {
		cl, err := cluster.New(8, baseline)
		if err != nil {
			t.Fatal(err)
		}
		col := NewCollector(8)
		svc, err := service.New(service.Config{Cluster: cl, Policy: rt.EDF, Partitioner: part, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		for i := 0; i < 40; i++ {
			task := rt.Task{
				ID:          int64(i),
				Arrival:     now,
				Sigma:       80 + float64(i%5)*40,
				RelDeadline: 4000,
			}
			if _, err := svc.Submit(context.Background(), task); err != nil {
				t.Fatal(err)
			}
			if err := svc.CommitDue(now); err != nil {
				t.Fatal(err)
			}
			now += 300
		}
		return col.Render(0, now, 100)
	}
	body := func(chart string) string {
		// Drop the legend line; only node rows matter.
		if i := strings.IndexByte(chart, '\n'); i >= 0 {
			return chart[i+1:]
		}
		return chart
	}
	opr := run(rt.OPR{})
	if !strings.Contains(body(opr), ".") {
		t.Fatalf("OPR timeline shows no inserted idle time:\n%s", opr)
	}
	iit := run(rt.IITDLT{})
	if strings.Contains(body(iit), ".") {
		t.Fatalf("IIT-DLT timeline must not reserve idle time:\n%s", iit)
	}
}

var _ rt.Observer = (*Collector)(nil)
