package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"rtdls/internal/cluster"
	"rtdls/internal/core"
	"rtdls/internal/dlt"
	"rtdls/internal/metrics"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/server"
	"rtdls/internal/service"
)

// The ladder measures each rung on its own, bottom up — DLT closed forms,
// the core model, one Plan, the scheduler's admission test, service.Submit,
// a one-shard pool, the in-process HTTP handler — so a number from any
// workload can be placed against the cost of the rungs beneath it. The
// upper rungs replay the head of the `shallow` stream (N=16, queue of about
// 1), where differences between rungs are per-call overhead, not replanning.

const (
	ladderBatches = 5
	ladderTasks   = 20000 // stream rungs, at -scale 1
	ladderCalls   = 1 << 14
)

// sink keeps the closed-form results alive so the calls are not removed.
var sink float64

// rungNS times batches of iters calls and returns the median ns per call.
func rungNS(iters int, call func(i int)) float64 {
	per := make([]float64, ladderBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < iters; i++ {
			call(i)
		}
		per[b] = float64(time.Since(start)) / float64(iters)
	}
	return median(per)
}

// streamRung replays the ladder stream through a fresh submit function per
// batch and returns the median µs and the median allocations per task.
func streamRung(tasks []rt.Task, fresh func() (submit func(i int, t rt.Task) error, err error)) (us, allocs float64, err error) {
	perUS := make([]float64, ladderBatches)
	perAllocs := make([]float64, ladderBatches)
	for b := range perUS {
		submit, err := fresh()
		if err != nil {
			return 0, 0, err
		}
		var tot totals
		tot.measure(func() {
			for i, t := range tasks {
				if err = submit(i, t); err != nil {
					return
				}
			}
		})
		if err != nil {
			return 0, 0, err
		}
		perUS[b] = float64(tot.elapsed) / 1e3 / float64(len(tasks))
		perAllocs[b] = float64(tot.mallocs) / float64(len(tasks))
	}
	return median(perUS), median(perAllocs), nil
}

func ladder(seed uint64, scale float64) (map[string]float64, error) {
	const n = 16
	calls := scaled(ladderCalls, scale)
	m := map[string]float64{}

	// dlt, core: closed forms and model construction at n=16.
	avail := make([]float64, n)
	costs := make([]dlt.NodeCost, n)
	for i := range avail {
		avail[i] = float64(i%3) * 700
		costs[i] = dlt.NodeCost{Cms: baseParams.Cms, Cps: baseParams.Cps * (1 + float64(i%4)/4)}
	}
	m["dlt.exec_time_ns"] = rungNS(16*calls, func(i int) { sink += baseParams.ExecTime(avgSigma+float64(i&7), n) })
	m["dlt.min_nodes_bound_ns"] = rungNS(16*calls, func(i int) {
		k, _ := dlt.MinNodesBound(baseParams, avgSigma+float64(i&7), 4000)
		sink += float64(k)
	})
	var rungErr error
	m["core.model_new_ns"] = rungNS(calls, func(int) {
		if _, err := core.New(baseParams, avgSigma, avail); err != nil {
			rungErr = err
		}
	})
	m["core.hetero_model_new_ns"] = rungNS(calls, func(int) {
		if _, err := core.NewHetero(costs, avgSigma, avail); err != nil {
			rungErr = err
		}
	})

	// rt: one IITDLT.Plan against a fresh 16-node view.
	task := &rt.Task{ID: 1, Sigma: avgSigma, RelDeadline: 4000}
	m["rt.plan_iitdlt_us"] = rungNS(calls, func(int) {
		ctx := &rt.PlanContext{P: baseParams, N: n, View: rt.NewAvailView(append([]float64(nil), avail...))}
		if _, err := (rt.IITDLT{}).Plan(ctx, task); err != nil {
			rungErr = err
		}
	}) / 1e3
	if rungErr != nil {
		return nil, fmt.Errorf("ladder: %w", rungErr)
	}

	// The upper rungs share the head of the shallow stream.
	shallow, _ := specByName("shallow")
	tasks, err := genStream(shallow, streamSeed(seed, 0), scaled(ladderTasks, scale))
	if err != nil {
		return nil, err
	}
	newCluster := func() (*cluster.Cluster, error) {
		cm, err := dlt.UniformCosts(baseParams, n)
		if err != nil {
			return nil, err
		}
		return cluster.NewHetero(cm.Costs())
	}
	ctx := context.Background()

	// rt: Scheduler.Submit + CommitDue, the admission test without a service.
	if m["rt.scheduler_submit_us"], _, err = streamRung(tasks, func() (func(int, rt.Task) error, error) {
		cl, err := newCluster()
		if err != nil {
			return nil, err
		}
		sched := rt.NewScheduler(cl, rt.EDF, rt.IITDLT{})
		return func(_ int, t rt.Task) error {
			if _, err := sched.CommitDue(t.Arrival); err != nil {
				return err
			}
			_, err := sched.Submit(&t, t.Arrival)
			return err
		}, nil
	}); err != nil {
		return nil, err
	}

	// service: the same stream through service.Submit on the default path.
	newService := func(reg *metrics.Registry) (*service.Service, error) {
		cl, err := newCluster()
		if err != nil {
			return nil, err
		}
		return service.New(service.Config{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{},
			Metrics: service.NewMetrics(reg)})
	}
	if m["service.submit_us"], _, err = streamRung(tasks, func() (func(int, rt.Task) error, error) {
		svc, err := newService(nil)
		if err != nil {
			return nil, err
		}
		return func(_ int, t rt.Task) error { _, err := svc.Submit(ctx, t); return err }, nil
	}); err != nil {
		return nil, err
	}
	m["service.self_us"] = m["service.submit_us"] - m["rt.scheduler_submit_us"]

	// pool: a one-shard pool is the service plus the placement layer.
	if m["pool.k1_submit_us"], _, err = streamRung(tasks, func() (func(int, rt.Task) error, error) {
		cl, err := newCluster()
		if err != nil {
			return nil, err
		}
		p, err := pool.New(pool.Config{Shards: []pool.ShardConfig{{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}}})
		if err != nil {
			return nil, err
		}
		return func(_ int, t rt.Task) error { _, err := p.Submit(ctx, t); return err }, nil
	}); err != nil {
		return nil, err
	}
	m["pool.k1_overhead_us"] = m["pool.k1_submit_us"] - m["service.submit_us"]

	// server: Handler().ServeHTTP on a recorder — JSON, middleware and
	// metrics without the kernel's TCP cost.
	bodies := make([][]byte, len(tasks))
	for i, t := range tasks {
		if bodies[i], err = json.Marshal(server.TaskRequest{ID: t.ID, Arrival: t.Arrival,
			Sigma: t.Sigma, Deadline: t.RelDeadline, UserN: t.UserN}); err != nil {
			return nil, err
		}
	}
	if m["server.inproc_handle_us"], m["server.inproc_allocs_per_req"], err = streamRung(tasks, func() (func(int, rt.Task) error, error) {
		reg := metrics.NewRegistry()
		svc, err := newService(reg)
		if err != nil {
			return nil, err
		}
		srv, err := server.New(server.Config{Engine: svc, Metrics: reg})
		if err != nil {
			return nil, err
		}
		h := srv.Handler()
		return func(i int, _ rt.Task) error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(bodies[i])))
			if rec.Code >= 500 || rec.Code == http.StatusBadRequest {
				return fmt.Errorf("in-process handler: status %d: %s", rec.Code, rec.Body)
			}
			return nil
		}, nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}
