// Package fleet implements the node-lifecycle subsystem's declarative
// side: a churn schedule — a reproducible script of drain/fail/restore
// operations against the engine's fleet — with one grammar shared by every
// binary, so the same chaos run executes identically in a simulation
// (dlsim applies ops at simulated instants) and under wall-clock time
// (dlserve applies them in-process, dlload over the admin API).
//
// Grammar, entries separated by ";":
//
//	schedule := entry (";" entry)*
//	entry    := "t=" time verb node
//	time     := float                 (the runner's native time base)
//	          | Go duration           ("5s", "250ms" — converted to seconds)
//	verb     := "drain" | "fail" | "restore"
//	node     := "n" id | id           (engine-wide node id, shard-major)
//
// Example: "t=5s fail n3; t=12s restore n3". Offsets are interpreted by
// whoever runs the schedule: wall seconds from process start for
// dlserve/dlload, simulation time units for dlsim.
//
// A verb names the node state it sets — drain → NodeDraining, fail →
// NodeDown, restore → NodeUp — and an Op carries that state, so a runner
// applies it with one call, the engine's SetNodeState(op.Node, op.State).
// The admin API takes the same verbs (POST /v1/nodes/{id}/{verb}).
package fleet

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"rtdls/internal/cluster"
	"rtdls/internal/errs"
)

// verbs is the one table of verbs and the node state each sets.
var verbs = [...]struct {
	verb  string
	state cluster.NodeState
}{
	{"drain", cluster.NodeDraining},
	{"fail", cluster.NodeDown},
	{"restore", cluster.NodeUp},
}

// ParseVerb returns the node state a verb sets.
func ParseVerb(verb string) (cluster.NodeState, error) {
	for _, v := range verbs {
		if v.verb == verb {
			return v.state, nil
		}
	}
	return 0, fmt.Errorf("fleet: unknown action %q (want drain, fail or restore): %w", verb, errs.ErrBadConfig)
}

// Verb returns the verb that sets st.
func Verb(st cluster.NodeState) string {
	for _, v := range verbs {
		if v.state == st {
			return v.verb
		}
	}
	return st.String()
}

// Op is one scheduled churn operation: at offset At (in the runner's
// native time base), move node Node into State.
type Op struct {
	At    float64
	State cluster.NodeState
	Node  int
}

// String renders the op in schedule grammar.
func (o Op) String() string {
	return fmt.Sprintf("t=%s %s n%d", strconv.FormatFloat(o.At, 'g', -1, 64), Verb(o.State), o.Node)
}

// Schedule is an ordered churn script. Entries keep their written order;
// runners execute them in At order (stable for equal offsets).
type Schedule []Op

// String renders the schedule in its own grammar, so a parsed schedule
// round-trips: ParseSchedule(s.String()) reproduces s exactly.
func (sch Schedule) String() string {
	parts := make([]string, len(sch))
	for i, op := range sch {
		parts[i] = op.String()
	}
	return strings.Join(parts, "; ")
}

// ParseSchedule parses a churn schedule (see the package comment for the
// grammar). An empty or all-whitespace input yields an empty schedule.
// Offsets must be finite and non-negative; duration-suffixed offsets
// ("5s") are converted to float seconds.
func ParseSchedule(s string) (Schedule, error) {
	var sch Schedule
	for _, raw := range strings.Split(s, ";") {
		entry := strings.TrimSpace(raw)
		if entry == "" {
			continue
		}
		fields := strings.Fields(entry)
		if len(fields) != 3 {
			return nil, fmt.Errorf("fleet: entry %q: want \"t=<time> <action> <node>\": %w", entry, errs.ErrBadConfig)
		}
		tTok, ok := strings.CutPrefix(fields[0], "t=")
		if !ok {
			return nil, fmt.Errorf("fleet: entry %q: time must be written t=<offset>: %w", entry, errs.ErrBadConfig)
		}
		at, err := parseOffset(tTok)
		if err != nil {
			return nil, fmt.Errorf("fleet: entry %q: %w", entry, err)
		}
		st, err := ParseVerb(fields[1])
		if err != nil {
			return nil, fmt.Errorf("fleet: entry %q: %w", entry, err)
		}
		node, err := parseNode(fields[2])
		if err != nil {
			return nil, fmt.Errorf("fleet: entry %q: %w", entry, err)
		}
		sch = append(sch, Op{At: at, State: st, Node: node})
	}
	return sch, nil
}

// parseOffset accepts a bare float (native time units) or a Go duration
// ("5s", "250ms"), which is converted to seconds.
func parseOffset(tok string) (float64, error) {
	if at, err := strconv.ParseFloat(tok, 64); err == nil {
		if math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
			return 0, fmt.Errorf("fleet: offset %q must be finite and non-negative: %w", tok, errs.ErrBadConfig)
		}
		return at, nil
	}
	d, err := time.ParseDuration(tok)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("fleet: bad offset %q (want a number or a non-negative duration): %w", tok, errs.ErrBadConfig)
	}
	return d.Seconds(), nil
}

// parseNode accepts "n<id>" or a bare non-negative integer.
func parseNode(tok string) (int, error) {
	trimmed := strings.TrimPrefix(tok, "n")
	id, err := strconv.Atoi(trimmed)
	if err != nil || id < 0 || trimmed != strconv.Itoa(id) {
		return 0, fmt.Errorf("fleet: bad node %q (want n<id> or a non-negative id): %w", tok, errs.ErrBadConfig)
	}
	return id, nil
}

// Sorted returns a copy of the schedule in execution order: ascending At,
// stable for equal offsets.
func (sch Schedule) Sorted() Schedule {
	out := make(Schedule, len(sch))
	copy(out, sch)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Run executes the schedule against wall time: each op fires At seconds
// after Run starts (ops are executed in At order). apply performs one op —
// an engine's SetNodeState, or an HTTP client against a remote admin
// API — and its error aborts the run. Run returns when the schedule is
// exhausted, apply fails, or done is closed/cancelled.
func Run(done <-chan struct{}, sch Schedule, apply func(Op) error) error {
	start := time.Now()
	for _, op := range sch.Sorted() {
		delay := time.Duration(op.At*float64(time.Second)) - time.Since(start)
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-done:
				timer.Stop()
				return nil
			case <-timer.C:
			}
		} else {
			select {
			case <-done:
				return nil
			default:
			}
		}
		if err := apply(op); err != nil {
			return fmt.Errorf("fleet: applying %q: %w", op.String(), err)
		}
	}
	return nil
}
