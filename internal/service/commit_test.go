package service_test

import (
	"context"
	"math"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/driver"
	"rtdls/internal/multiround"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// commitOracle re-simulates every committed single-round staggered plan on
// the cluster's cost model, as the commit path once did, and keeps the
// execution statistics that re-simulation gives.
type commitOracle struct {
	t       *testing.T
	cm      *dlt.CostModel
	exec    service.ExecStats
	checked int // single-round staggered plans compared
	tied    int // of them, plans with two nodes starting at the same instant
}

func (o *commitOracle) OnAccept(float64, *rt.Task, *rt.Plan) {}
func (o *commitOracle) OnReject(float64, *rt.Task)           {}

func (o *commitOracle) OnCommit(_ float64, pl *rt.Plan) {
	actual := pl.Est
	if pl.Rounds <= 1 && !pl.SimultaneousStart {
		d, err := o.cm.SimulateFor(pl.Nodes, pl.Task.Sigma, pl.Starts, pl.Alphas)
		if err != nil {
			o.t.Fatalf("task %d: %v", pl.Task.ID, err)
		}
		actual = d.Completion
		latest := math.Inf(-1)
		for _, r := range pl.Release {
			latest = max(latest, r)
		}
		if math.Float64bits(latest) != math.Float64bits(actual) {
			o.t.Fatalf("task %d: latest release %v, re-simulated completion %v", pl.Task.ID, latest, actual)
		}
		o.checked++
		for k := 1; k < len(pl.Starts); k++ {
			if pl.Starts[k] == pl.Starts[k-1] {
				o.tied++
				break
			}
		}
	}
	o.exec.Committed++
	o.exec.RespSum += actual - pl.Task.Arrival
	o.exec.SlackSum += pl.Est - actual
	o.exec.NodeSum += len(pl.Nodes)
	o.exec.MaxLateness = max(o.exec.MaxLateness, actual-pl.Task.AbsDeadline())
}

// TestCommitCompletionIsLatestRelease: the commit path takes a single-round
// staggered plan's actual completion from its latest Release. For IITDLT,
// User-Split and one-round multiround plans on a uniform and a SpreadCosts
// fleet, that is the re-simulated dispatch's completion bit for bit, and
// the service's execution statistics are the ones the re-simulation gives.
// Arrivals come in bursts after idle gaps, so many plans start several
// nodes at the same instant.
func TestCommitCompletionIsLatestRelease(t *testing.T) {
	const n = 16
	base := dlt.Params{Cms: 1, Cps: 100}
	spread, err := driver.SpreadCosts(n, base, 4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	mr1, err := multiround.New(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []rt.Partitioner{rt.IITDLT{}, rt.UserSplit{}, mr1} {
		for _, het := range []bool{false, true} {
			cl, err := cluster.New(n, base)
			if het {
				cl, err = cluster.NewHetero(spread)
			}
			if err != nil {
				t.Fatal(err)
			}
			o := &commitOracle{t: t, cm: cl.Costs(), exec: service.ExecStats{MaxLateness: math.Inf(-1)}}
			clock := service.NewManualClock(0)
			svc, err := service.New(service.Config{Cluster: cl, Policy: rt.EDF, Partitioner: part, Clock: clock, Observer: o})
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 600; i++ {
				clock.Set(5000 * float64(i/6))
				task := rt.Task{
					ID:          i,
					Sigma:       30 + float64((i*37)%350),
					RelDeadline: 500 + float64((i*91)%6000),
					UserN:       1 + int((i*5)%n),
				}
				if _, err := svc.Submit(context.Background(), task); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Drain(); err != nil {
				t.Fatal(err)
			}
			if got := svc.Exec(); got != o.exec {
				t.Fatalf("%s hetero=%v: exec %+v, re-simulated %+v", part.Name(), het, got, o.exec)
			}
			t.Logf("%s hetero=%v: %d plans checked, %d with tied starts", part.Name(), het, o.checked, o.tied)
			if o.checked < 100 || o.tied < 20 {
				t.Fatalf("%s hetero=%v: weak inputs: %d plans checked, %d with tied starts", part.Name(), het, o.checked, o.tied)
			}
			svc.Close()
		}
	}
}
