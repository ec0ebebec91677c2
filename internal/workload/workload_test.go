package workload

import (
	"math"
	"runtime"
	"testing"

	"rtdls/internal/dlt"
	"rtdls/internal/rt"
)

var baseline = dlt.Params{Cms: 1, Cps: 100}

func baseCfg() Config {
	return Config{
		N: 16, Params: baseline,
		SystemLoad: 0.5, AvgSigma: 200, DCRatio: 2,
		Horizon: 1e6, Seed: 1,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Config){
		"zero N":       func(c *Config) { c.N = 0 },
		"bad params":   func(c *Config) { c.Params = dlt.Params{} },
		"zero load":    func(c *Config) { c.SystemLoad = 0 },
		"neg load":     func(c *Config) { c.SystemLoad = -1 },
		"inf load":     func(c *Config) { c.SystemLoad = math.Inf(1) },
		"zero sigma":   func(c *Config) { c.AvgSigma = 0 },
		"zero dcratio": func(c *Config) { c.DCRatio = 0 },
		"zero horizon": func(c *Config) { c.Horizon = 0 },
		"NaN horizon":  func(c *Config) { c.Horizon = math.NaN() },
	}
	for name, mut := range mutations {
		t.Run(name, func(t *testing.T) {
			c := baseCfg()
			mut(&c)
			if err := c.Validate(); err == nil {
				t.Fatalf("expected error")
			}
			if _, err := New(c); err == nil {
				t.Fatalf("New must reject invalid config")
			}
		})
	}
}

func TestDerivedQuantities(t *testing.T) {
	c := baseCfg()
	e := baseline.ExecTime(200, 16)
	if got := c.AvgExecTime(); math.Abs(got-e) > 1e-9 {
		t.Fatalf("AvgExecTime = %v, want %v", got, e)
	}
	if got := c.MeanInterarrival(); math.Abs(got-e/0.5) > 1e-9 {
		t.Fatalf("MeanInterarrival = %v, want %v", got, e/0.5)
	}
	if got := c.AvgDeadline(); math.Abs(got-2*e) > 1e-9 {
		t.Fatalf("AvgDeadline = %v, want %v", got, 2*e)
	}
}

func TestTaskStreamInvariants(t *testing.T) {
	g, err := New(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := g.Config()
	avgD := cfg.AvgDeadline()
	prevArrival := -1.0
	prevID := int64(-1)
	n := 0
	for {
		task, ok := g.Next()
		if !ok {
			break
		}
		n++
		if task.Arrival < prevArrival {
			t.Fatalf("arrivals not monotone: %v after %v", task.Arrival, prevArrival)
		}
		if task.Arrival > cfg.Horizon {
			t.Fatalf("arrival %v beyond horizon", task.Arrival)
		}
		if task.ID != prevID+1 {
			t.Fatalf("IDs not sequential: %d after %d", task.ID, prevID)
		}
		if task.Sigma <= 0 {
			t.Fatalf("non-positive sigma %v", task.Sigma)
		}
		if task.RelDeadline < baseline.ExecTime(task.Sigma, cfg.N)-1e-9 {
			t.Fatalf("deadline %v below minimum execution time %v",
				task.RelDeadline, baseline.ExecTime(task.Sigma, cfg.N))
		}
		if task.RelDeadline > 1.5*avgD && task.RelDeadline > baseline.ExecTime(task.Sigma, cfg.N)+1e-9 {
			t.Fatalf("unclamped deadline %v above 3AvgD/2 = %v", task.RelDeadline, 1.5*avgD)
		}
		if task.UserN != 0 {
			if task.UserN < 1 || task.UserN > cfg.N {
				t.Fatalf("UserN %d out of range", task.UserN)
			}
			nmin, feas := dlt.UserSplitMinNodes(baseline, task.Sigma, task.RelDeadline)
			if !feas || task.UserN < nmin {
				t.Fatalf("UserN %d below Nmin %d", task.UserN, nmin)
			}
		}
		prevArrival, prevID = task.Arrival, task.ID
	}
	if n == 0 {
		t.Fatalf("no tasks generated")
	}
	if g.Count() != n {
		t.Fatalf("Count = %d, want %d", g.Count(), n)
	}
}

func TestArrivalRateMatchesLoad(t *testing.T) {
	c := baseCfg()
	c.Horizon = 3e7
	g, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := g.Next(); !ok {
			break
		}
		n++
	}
	want := c.Horizon / c.MeanInterarrival()
	if math.Abs(float64(n)-want) > 0.08*want {
		t.Fatalf("generated %d tasks, want ≈ %.0f", n, want)
	}
}

func TestSigmaDistribution(t *testing.T) {
	c := baseCfg()
	c.Horizon = 5e7
	g, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	sum, n, floored := 0.0, 0, 0
	for {
		task, ok := g.Next()
		if !ok {
			break
		}
		if task.Sigma == 0.01*200 {
			floored++
		}
		sum += task.Sigma
		n++
	}
	// Clamping a Normal(μ, μ) at ~0 raises the mean to
	// μ·(Φ(1) + φ(1)) ≈ 1.083 μ (see Generator.Next).
	wantMean := 200 * 1.0833
	got := sum / float64(n)
	if math.Abs(got-wantMean) > 0.05*wantMean {
		t.Fatalf("mean sigma = %v, want ≈ %v (clamped normal)", got, wantMean)
	}
	// The clamp atom holds the negative mass, Φ(-1) ≈ 15.9%.
	frac := float64(floored) / float64(n)
	if math.Abs(frac-0.1587) > 0.03 {
		t.Fatalf("clamped fraction = %v, want ≈ 0.159", frac)
	}
}

func TestDeterminismAcrossGenerators(t *testing.T) {
	g1, _ := New(baseCfg())
	g2, _ := New(baseCfg())
	for i := 0; i < 500; i++ {
		t1, ok1 := g1.Next()
		t2, ok2 := g2.Next()
		if ok1 != ok2 {
			t.Fatalf("streams diverge in length at %d", i)
		}
		if !ok1 {
			break
		}
		if *t1 != *t2 {
			t.Fatalf("same seed produced different tasks: %+v vs %+v", t1, t2)
		}
	}
}

func TestSeedsChangeStream(t *testing.T) {
	c1, c2 := baseCfg(), baseCfg()
	c2.Seed = 2
	g1, _ := New(c1)
	g2, _ := New(c2)
	t1, _ := g1.Next()
	t2, _ := g2.Next()
	if t1.Arrival == t2.Arrival && t1.Sigma == t2.Sigma {
		t.Fatalf("different seeds produced identical first task")
	}
}

// TestUserNStreamIndependence is the pairing property the paired-seed
// comparisons of internal/experiments rely on:
// the arrival/σ/D sequence is identical whether or not UserN is consumed,
// because it comes from a separate RNG stream.
func TestUserNStreamIndependence(t *testing.T) {
	g1, _ := New(baseCfg())
	g2, _ := New(baseCfg())
	for i := 0; i < 300; i++ {
		t1, ok1 := g1.Next()
		t2, ok2 := g2.Next()
		if ok1 != ok2 {
			break
		}
		if !ok1 {
			break
		}
		_ = t1.UserN // consume on one side only (no-op — both generate it)
		if t1.Arrival != t2.Arrival || t1.Sigma != t2.Sigma || t1.RelDeadline != t2.RelDeadline {
			t.Fatalf("main stream perturbed at task %d", i)
		}
	}
}

// legacyNext is Generator.Next as it was before New cached the values the
// configuration fixes: AvgDeadline, ExecTime(σ, N) and MeanInterarrival are
// recomputed on every task.
func legacyNext(g *Generator) (t *rt.Task, ok bool) {
	if g.next > g.cfg.Horizon {
		return nil, false
	}
	t = &rt.Task{ID: g.nextID, Arrival: g.next}
	g.nextID++
	g.count++
	s := g.cfg.AvgSigma + g.cfg.AvgSigma*g.main.NormFloat64()
	if floor := sigmaFloorFrac * g.cfg.AvgSigma; s < floor {
		s = floor
	}
	t.Sigma = s
	avgD := g.cfg.AvgDeadline()
	d := avgD * (0.5 + g.main.Float64())
	if minExec := g.cfg.Params.ExecTime(t.Sigma, g.cfg.N); d < minExec {
		d = minExec
	}
	t.RelDeadline = d
	if nmin, feas := dlt.UserSplitMinNodes(g.cfg.Params, t.Sigma, t.RelDeadline); feas && nmin <= g.cfg.N {
		t.UserN = nmin + g.aux.IntN(g.cfg.N-nmin+1)
	}
	g.next += g.main.ExpFloat64() * g.cfg.MeanInterarrival()
	return t, true
}

// TestCachedConstantsKeepStream: the generator that computes its constants
// once emits the legacy stream bit for bit, over configurations whose
// deadlines the ExecTime floor clamps often (DCRatio 0.5) and seldom.
func TestCachedConstantsKeepStream(t *testing.T) {
	cfgs := []Config{baseCfg(), baseCfg(), baseCfg()}
	cfgs[1].N, cfgs[1].Params, cfgs[1].DCRatio, cfgs[1].Seed = 3, dlt.Params{Cms: 2, Cps: 7}, 0.5, 7
	cfgs[2].N, cfgs[2].Params, cfgs[2].SystemLoad, cfgs[2].DCRatio, cfgs[2].Seed = 1024, dlt.Params{Cms: 0.3, Cps: 1e4}, 3, 100, 11
	for i, c := range cfgs {
		c.Horizon = 1e300
		g, _ := New(c)
		ref, _ := New(c)
		clamped := 0
		for k := 0; k < 10000; k++ {
			got, ok := g.Next()
			want, wantOK := legacyNext(ref)
			if !ok || !wantOK || *got != *want {
				t.Fatalf("config %d, task %d: %+v (%v), legacy %+v (%v)", i, k, got, ok, want, wantOK)
			}
			if got.RelDeadline == c.Params.ExecTime(got.Sigma, c.N) {
				clamped++
			}
		}
		t.Logf("config %d: %d of 10000 deadlines clamped to E(σ, N)", i, clamped)
		if i < 2 && clamped == 0 {
			t.Fatalf("config %d clamps no deadline", i)
		}
	}
}

// TestNextRecords: Next cuts its tasks from arena chunks, so it allocates
// nothing per task once amortized; still every task is a record of its
// own, and no later call changes it.
func TestNextRecords(t *testing.T) {
	cfg := baseCfg()
	cfg.Horizon = 1e12
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	tasks, vals := make([]*rt.Task, 0, n), make([]rt.Task, 0, n)
	seen := make(map[*rt.Task]bool, n)
	for range n {
		task, ok := g.Next()
		if !ok || seen[task] {
			t.Fatalf("task %d: ok=%v, pointer seen before %v", len(tasks), ok, seen[task])
		}
		seen[task] = true
		tasks, vals = append(tasks, task), append(vals, *task)
	}
	allocs := testing.AllocsPerRun(n, func() {
		if _, ok := g.Next(); !ok {
			t.Fatal("stream ended")
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %.0f times per task, want 0", allocs)
	}
	for i, task := range tasks {
		if *task != vals[i] {
			t.Fatalf("task %d changed after later Next calls: %+v, was %+v", i, *task, vals[i])
		}
	}
}

// TestNextIntoMatchesNext: NextInto draws Next's stream task for task,
// overwriting every field of a reused record (a stale UserN included), and
// leaves the record alone once the horizon is passed. It allocates nothing:
// a record cut per call would cost 48 B.
func TestNextIntoMatchesNext(t *testing.T) {
	cfg := baseCfg()
	cfg.Horizon = 2e6
	gNext, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gInto, _ := New(cfg)
	rec := rt.Task{ID: -1, UserN: 99, Sigma: -1}
	n := 0
	for {
		want, ok := gNext.Next()
		if got := gInto.NextInto(&rec); got != ok {
			t.Fatalf("task %d: NextInto reports %v, Next %v", n, got, ok)
		}
		if !ok {
			break
		}
		if rec != *want {
			t.Fatalf("task %d: NextInto wrote %+v, Next returned %+v", n, rec, *want)
		}
		n++
	}
	if last := rec; gInto.NextInto(&rec) || rec != last || gInto.Count() != n {
		t.Fatalf("past the horizon NextInto changed the record or the count: %+v, %d of %d", rec, gInto.Count(), n)
	}
	if n < 100 {
		t.Fatalf("only %d tasks", n)
	}

	cfg.Horizon = 1e12
	g, _ := New(cfg)
	const runs = 1 << 14
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		if !g.NextInto(&rec) {
			t.Fatal("stream ended")
		}
	}
	runtime.ReadMemStats(&m1)
	if b := float64(m1.TotalAlloc-m0.TotalAlloc) / runs; b > 1 {
		t.Fatalf("NextInto allocates %.1f B per task, want 0", b)
	}
}
