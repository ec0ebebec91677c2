// Package gantt renders ASCII Gantt charts of node occupation from
// committed plans. It makes the paper's core phenomenon visible: under the
// OPR baseline a waiting task's early nodes show reserved-idle stretches
// ('·') before execution ('█'-style letters), while under IIT-DLT every
// node is working from the moment it is released.
package gantt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rtdls/internal/rt"
)

// interval is one task's occupation of one node.
type interval struct {
	node     int
	from, to float64
	execFrom float64 // when computation (as opposed to reservation) begins
	taskID   int64
}

// Collector implements rt.Observer and records committed node occupation.
// Install it with service.Config.Observer (or rtdls.WithObserver); the
// service calls OnCommit as each plan's first transmission starts.
type Collector struct {
	n         int
	intervals []interval
	maxTime   float64
}

// NewCollector returns a collector for a cluster of n nodes.
func NewCollector(n int) *Collector { return &Collector{n: n} }

// OnAccept implements rt.Observer.
func (c *Collector) OnAccept(now float64, t *rt.Task, p *rt.Plan) {}

// OnReject implements rt.Observer.
func (c *Collector) OnReject(now float64, t *rt.Task) {}

// OnCommit implements rt.Observer.
func (c *Collector) OnCommit(now float64, p *rt.Plan) {
	rn := p.Rn()
	for i, id := range p.Nodes {
		execFrom := p.Starts[i]
		if p.SimultaneousStart {
			// OPR-style plan: the node is held from its release but only
			// executes once all nodes are free.
			execFrom = rn
		}
		iv := interval{
			node: id, from: p.Starts[i], to: p.Release[i],
			execFrom: execFrom, taskID: p.Task.ID,
		}
		c.intervals = append(c.intervals, iv)
		if iv.to > c.maxTime {
			c.maxTime = iv.to
		}
	}
}

// Intervals returns the number of recorded node-occupation intervals.
func (c *Collector) Intervals() int { return len(c.intervals) }

// Render draws the node timelines over [from, to] using width columns.
// Each task is labelled by a letter cycling through a–z (derived from its
// ID); '·' marks reserved idle time (node held but not yet executing) and
// spaces mark genuinely free time.
func (c *Collector) Render(from, to float64, width int) string {
	if width < 10 {
		width = 10
	}
	if to <= from {
		to = c.maxTime
		if to <= from {
			to = from + 1
		}
	}
	scale := float64(width) / (to - from)
	col := func(t float64) int {
		x := int(math.Floor((t - from) * scale))
		if x < 0 {
			return 0
		}
		if x >= width {
			return width - 1
		}
		return x
	}

	rows := make([][]byte, c.n)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	ivs := append([]interval(nil), c.intervals...)
	sort.SliceStable(ivs, func(a, b int) bool { return ivs[a].from < ivs[b].from })
	for _, iv := range ivs {
		if iv.node < 0 || iv.node >= c.n || iv.to < from || iv.from > to {
			continue
		}
		label := byte('a' + iv.taskID%26)
		lo, hi := col(iv.from), col(iv.to)
		ex := col(iv.execFrom)
		for x := lo; x <= hi; x++ {
			if x < ex {
				rows[iv.node][x] = '.'
			} else {
				rows[iv.node][x] = label
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "node timeline  t ∈ [%.0f, %.0f]  ('.' = reserved idle, letters = task execution)\n", from, to)
	for i, row := range rows {
		fmt.Fprintf(&b, "P%-3d |%s|\n", i+1, string(row))
	}
	return b.String()
}
