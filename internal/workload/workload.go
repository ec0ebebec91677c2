// Package workload generates the synthetic task sets of the paper's
// evaluation (Sec. 5): Poisson arrivals, normally distributed data sizes
// with standard deviation equal to the mean, and uniformly distributed
// relative deadlines parameterised by the deadline-to-cost ratio DCRatio.
//
// SystemLoad is defined as arrival-rate × E(Avgσ, N): the fraction of
// cluster time the stream would consume if every task had the average data
// size and ran on all N nodes. Given SystemLoad, the mean interarrival time
// is E(Avgσ,N)/SystemLoad.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"rtdls/internal/dlt"
	"rtdls/internal/rt"
)

// Config specifies one simulated workload.
type Config struct {
	N          int        // cluster size (for E(Avgσ,N) and user node requests)
	Params     dlt.Params // cluster unit costs
	SystemLoad float64    // arrival-rate × E(Avgσ,N); (0, ~1]
	AvgSigma   float64    // mean task data size
	DCRatio    float64    // mean relative deadline / E(Avgσ,N)
	Horizon    float64    // generate arrivals in [0, Horizon]
	Seed       uint64     // base RNG seed; same seed ⇒ identical task stream
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("workload: N must be >= 1, got %d", c.N)
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if !(c.SystemLoad > 0) || math.IsInf(c.SystemLoad, 0) {
		return fmt.Errorf("workload: SystemLoad must be positive and finite, got %v", c.SystemLoad)
	}
	if !(c.AvgSigma > 0) || math.IsInf(c.AvgSigma, 0) {
		return fmt.Errorf("workload: AvgSigma must be positive and finite, got %v", c.AvgSigma)
	}
	if !(c.DCRatio > 0) || math.IsInf(c.DCRatio, 0) {
		return fmt.Errorf("workload: DCRatio must be positive and finite, got %v", c.DCRatio)
	}
	if !(c.Horizon > 0) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("workload: Horizon must be positive and finite, got %v", c.Horizon)
	}
	return nil
}

// AvgExecTime returns E(Avgσ, N), the execution time of an average-sized
// task on the whole cluster — the paper's unit for both SystemLoad and
// DCRatio.
func (c Config) AvgExecTime() float64 {
	return c.Params.ExecTime(c.AvgSigma, c.N)
}

// MeanInterarrival returns E(Avgσ,N)/SystemLoad.
func (c Config) MeanInterarrival() float64 {
	return c.AvgExecTime() / c.SystemLoad
}

// AvgDeadline returns AvgD = DCRatio × E(Avgσ,N); relative deadlines are
// drawn uniformly from [AvgD/2, 3·AvgD/2].
func (c Config) AvgDeadline() float64 {
	return c.DCRatio * c.AvgExecTime()
}

// sigmaFloorFrac is the truncation floor for task data sizes as a fraction
// of AvgSigma: draws from Normal(Avgσ, Avgσ) below it are clamped.
const sigmaFloorFrac = 0.01

// Generator produces the task stream for one simulation run. It is not
// safe for concurrent use.
type Generator struct {
	cfg  Config
	main *rand.Rand // arrivals, sizes, deadlines
	aux  *rand.Rand // user-requested node counts (separate stream so the
	// main sequence is identical across algorithms)
	next   float64
	nextID int64
	count  int

	// Fixed by cfg, computed once in New: AvgDeadline, MeanInterarrival,
	// and the 1 − βᴺ of ExecTime(σ, N).
	avgD, meanIA, execDen float64

	tasks []rt.Task // the arena Next cuts its tasks from (rt.Carve)
}

// New returns a generator for the configuration, or an error if the
// configuration is invalid.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:     cfg,
		main:    rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		aux:     rand.New(rand.NewPCG(cfg.Seed^0xd1b54a32d192ed03, cfg.Seed+0x632be59bd9b4e019)),
		avgD:    cfg.AvgDeadline(),
		meanIA:  cfg.MeanInterarrival(),
		execDen: 1 - math.Pow(cfg.Params.Beta(), float64(cfg.N)),
	}
	g.next = g.main.ExpFloat64() * g.meanIA
	return g, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Next returns the next task, or ok=false once the next arrival would fall
// beyond the horizon. Tasks are returned in strictly non-decreasing arrival
// order with unique IDs. Each is a distinct record that no later call
// changes, cut from chunks of about 4 KB: a retained task keeps its chunk
// reachable. A caller that only reads each task before asking for the next
// one uses NextInto, which allocates nothing.
func (g *Generator) Next() (t *rt.Task, ok bool) {
	if g.next > g.cfg.Horizon {
		return nil, false
	}
	t = &rt.Carve(&g.tasks, 1)[0]
	return t, g.NextInto(t)
}

// NextInto writes the next task to t, every field of it, and reports true;
// once the next arrival would fall beyond the horizon it leaves t alone and
// reports false. It draws the stream Next draws, task for task, so a
// caller can reuse one record for every arrival.
func (g *Generator) NextInto(t *rt.Task) bool {
	if g.next > g.cfg.Horizon {
		return false
	}
	*t = rt.Task{ID: g.nextID, Arrival: g.next}
	g.nextID++
	g.count++

	// σ ~ Normal(Avgσ, Avgσ), truncated to a small positive floor:
	// clamping keeps the effective mean within ~8% of
	// Avgσ, so SystemLoad retains its intended meaning; resampling would
	// inflate it by ~29% and push nominal load 1.0 deep into overload.
	s := g.cfg.AvgSigma + g.cfg.AvgSigma*g.main.NormFloat64()
	if floor := sigmaFloorFrac * g.cfg.AvgSigma; s < floor {
		s = floor
	}
	t.Sigma = s

	// D ~ Uniform[AvgD/2, 3AvgD/2], clamped to be at least the minimum
	// execution time E(σ, N) (the paper requires D_i > E(σ_i, N)).
	d := g.avgD * (0.5 + g.main.Float64())
	if minExec := t.Sigma * g.cfg.Params.Cms / g.execDen; d < minExec { // ExecTime's expression
		d = minExec
	}
	t.RelDeadline = d

	// User-requested node count ~ Uniform[Nmin, N] (Sec. 4.1.2), from the
	// auxiliary stream. UserN = 0 marks a task no node count can save.
	if nmin, feas := dlt.UserSplitMinNodes(g.cfg.Params, t.Sigma, t.RelDeadline); feas && nmin <= g.cfg.N {
		t.UserN = nmin + g.aux.IntN(g.cfg.N-nmin+1)
	}

	g.next += g.main.ExpFloat64() * g.meanIA
	return true
}

// Count returns the number of tasks generated so far.
func (g *Generator) Count() int { return g.count }
