package service

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/rt"
)

// speculateAlone sends every submit of svc down the speculative road, as if
// another submitter were always in flight: the tests that pin that road
// would otherwise need a second goroutine at the right instant.
func speculateAlone(svc *Service) { svc.company.Store(math.MaxInt64) }

// routerTask derives a deterministic task from its id: a mix of accepts and
// rejects on a 16-node baseline fleet.
func routerTask(id int64, arrival float64) rt.Task {
	return rt.Task{
		ID:          id,
		Arrival:     arrival,
		Sigma:       30 + float64((id*37)%350),
		RelDeadline: 500 + float64((id*91)%6000),
	}
}

// TestLoneSubmitterTakesTheLiveRoad: one goroutine submitting, singly and in
// batches, with driver-style CommitDue calls between the submits, never
// speculates — no install, no conflict, no context taken — and decides,
// commits and executes bit for bit what a SetSpeculation(false) twin does.
func TestLoneSubmitterTakesTheLiveRoad(t *testing.T) {
	hetero := make([]dlt.NodeCost, 16)
	for i := range hetero {
		hetero[i] = dlt.NodeCost{Cms: 0.6 + 0.1*float64(i%5), Cps: 70 + 9*float64((i*7)%13)}
	}
	for _, het := range []bool{false, true} {
		run := func(spec bool) ([]Decision, ExecStats, ledger, Stats) {
			cl, err := cluster.New(16, baseline)
			if het {
				cl, err = cluster.NewHetero(hetero)
			}
			if err != nil {
				t.Fatal(err)
			}
			clock := NewManualClock(0)
			svc, err := New(Config{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			svc.SetSpeculation(spec)
			ctx := context.Background()
			var out []Decision
			for i := int64(1); i <= 600; i++ {
				arrival := 250 * float64(i)
				for {
					at, ok := svc.NextCommit()
					if !ok || at > arrival {
						break
					}
					if err := svc.CommitDue(at); err != nil {
						t.Fatal(err)
					}
				}
				clock.Set(arrival)
				if i%7 == 0 {
					ds, err := svc.SubmitBatch(ctx, []rt.Task{routerTask(i, 0), routerTask(i+100000, 0)})
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, ds...)
					continue
				}
				d, err := svc.Submit(ctx, routerTask(i, 0))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, d)
			}
			if err := svc.Drain(); err != nil {
				t.Fatal(err)
			}
			if spec && len(svc.specFree) != 0 {
				t.Fatalf("hetero=%v: %d speculation contexts parked by a lone submitter", het, len(svc.specFree))
			}
			st := svc.Stats()
			return out, svc.Exec(), ledgerOf(st), st
		}
		got, gotExec, gotLedger, st := run(true)
		want, wantExec, wantLedger, _ := run(false)
		if st.Speculative != 0 || st.Conflicts != 0 {
			t.Fatalf("hetero=%v: %d speculative installs and %d conflicts from a lone submitter", het, st.Speculative, st.Conflicts)
		}
		if st.Accepts == 0 || st.Rejects == 0 || st.Commits == 0 {
			t.Fatalf("hetero=%v: degenerate stream %+v", het, st)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hetero=%v: decisions differ from the serialized twin", het)
		}
		if gotExec != wantExec || gotLedger != wantLedger {
			t.Fatalf("hetero=%v: exec %+v ledger %+v, serialized twin %+v %+v", het, gotExec, gotLedger, wantExec, wantLedger)
		}
	}
}

// gatedPartitioner holds the first Plan call that finds it armed, saying so
// on entered, until a second admit is in flight on svc or alone reports that
// none will come.
type gatedPartitioner struct {
	rt.IITDLT
	svc     **Service
	armed   *atomic.Bool
	entered chan struct{} // buffered
	alone   func() bool
}

func (p gatedPartitioner) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	if p.armed.CompareAndSwap(true, false) {
		select {
		case p.entered <- struct{}{}:
		default:
		}
		for (*p.svc).inflight.Load() < 2 && !p.alone() {
			runtime.Gosched()
		}
	}
	return p.IITDLT.Plan(ctx, t)
}

func newGate(svc **Service, alone func() bool) gatedPartitioner {
	return gatedPartitioner{svc: svc, armed: new(atomic.Bool), entered: make(chan struct{}, 1), alone: alone}
}

// TestSecondSubmitterSpeculates: a lone submitter decides on the live state;
// a second submit that arrives while the first is still planning finds it
// in flight, speculates — its snapshot waits for the first decision to land
// — and installs on the unchanged epoch. Both decisions are the serialized
// ones.
func TestSecondSubmitterSpeculates(t *testing.T) {
	first := rt.Task{ID: 1, Arrival: 10, Sigma: 100, RelDeadline: 1e5}
	second := rt.Task{ID: 2, Arrival: 10, Sigma: 100, RelDeadline: 2e5}
	var svc *Service
	gate := newGate(&svc, func() bool { return false })
	svc = newTestService(t, func(c *Config) { c.Partitioner = gate })
	gate.armed.Store(true)
	ctx := context.Background()

	var d1 Decision
	var err1 error
	done := make(chan struct{})
	go func() {
		defer close(done)
		d1, err1 = svc.Submit(ctx, first)
	}()
	<-gate.entered
	d2, err := svc.Submit(ctx, second)
	<-done
	if err1 != nil || err != nil {
		t.Fatalf("submits: %v, %v", err1, err)
	}
	if st := svc.Stats(); st.Speculative != 1 || st.Conflicts != 0 || st.Accepts != 2 {
		t.Fatalf("stats %+v: want both accepted, the second by one speculative install", st)
	}

	twin := newTestService(t)
	twin.SetSpeculation(false)
	for i, want := range []Decision{d1, d2} {
		got, err := twin.Submit(ctx, []rt.Task{first, second}[i])
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("submit %d: serialized %+v (%v), routed %+v", i+1, got, err, want)
		}
	}
}

// TestPhasedLinearizationReplay alternates lone phases, long enough to leave
// the speculation window and decide on the live state, with 8-goroutine
// phases that speculate, so the contexts parked in one concurrent phase are
// stale by the next. (The first plan of a concurrent phase waits for a
// second submitter, so every such phase overlaps at least once.) Whatever
// the interleaving, replaying the event stream's linearization through a
// serialized service reproduces every decision bit for bit. Run it under
// -race.
func TestPhasedLinearizationReplay(t *testing.T) {
	const (
		phases  = 6
		lone    = specWindow + 32
		workers = 8
		each    = 20
	)
	var svc *Service
	finished := new(atomic.Int64) // workers of the current phase done
	gate := newGate(&svc, func() bool { return finished.Load() >= workers-1 })
	svc = newTestService(t, func(c *Config) { c.Partitioner = gate })
	events, cancel := svc.Subscribe(1 << 15)
	order := make(chan []int64, 1)
	go func() {
		var ids []int64
		for ev := range events {
			if ev.Kind == EventAccept || ev.Kind == EventReject {
				ids = append(ids, ev.Task.ID)
			}
		}
		order <- ids
	}()

	var (
		mu    sync.Mutex
		got   = make(map[int64]Decision)
		tasks = make(map[int64]rt.Task)
		id    atomic.Int64
	)
	ctx := context.Background()
	submit := func(task rt.Task) {
		d, err := svc.Submit(ctx, task)
		if err != nil {
			t.Errorf("task %d: %v", task.ID, err)
			return
		}
		mu.Lock()
		got[task.ID], tasks[task.ID] = d, task
		mu.Unlock()
	}
	arrival := 0.0
	for phase := 0; phase < phases; phase++ {
		before := svc.Stats()
		if phase%2 == 0 {
			for i := 0; i < lone; i++ {
				arrival += 300
				submit(routerTask(id.Add(1), arrival))
			}
		} else {
			arrival += 300
			finished.Store(0)
			gate.armed.Store(true)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						submit(routerTask(id.Add(1), arrival))
					}
					finished.Add(1)
				}()
			}
			wg.Wait()
			gate.armed.Store(false)
		}
		st := svc.Stats()
		spec := st.Speculative + st.Conflicts - before.Speculative - before.Conflicts
		if phase%2 == 0 && spec > specWindow {
			t.Fatalf("phase %d: a lone submitter speculated %d times, past the window of %d", phase, spec, specWindow)
		}
		if phase%2 == 1 && spec == 0 {
			t.Fatalf("phase %d: no concurrent submit speculated", phase)
		}
	}
	if t.Failed() {
		return
	}
	st := svc.Stats()
	svc.Close()
	cancel()
	linear := <-order
	if st.EventsDropped != 0 || len(linear) != len(got) {
		t.Fatalf("linearization has %d decisions of %d (%d events dropped)", len(linear), len(got), st.EventsDropped)
	}

	replay := newTestService(t)
	replay.SetSpeculation(false)
	for pos, n := range linear {
		d, err := replay.Submit(ctx, tasks[n])
		if err != nil || !reflect.DeepEqual(d, got[n]) {
			t.Fatalf("pos %d task %d: serialized %+v (%v), concurrent run %+v", pos, n, d, err, got[n])
		}
	}
}
