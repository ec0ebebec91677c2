// Command benchgate enforces benchmark contracts from `go test -json`
// benchmark streams produced in CI.
//
// Default mode gates the admission index's scaling contract
// (BENCH_index.json): for every benchmark family carrying nodes=<n>
// subtests it compares ns/op at the largest fleet against the smallest of
// at least 16 nodes and fails when the growth exceeds -max-ratio. Gating on
// the growth ratio rather than absolute ns keeps the check
// machine-independent: a per-submit cost linear in the fleet would grow
// ~100x over the nodes=100 → nodes=10000 sweep, while the indexed hot path
// stays flat up to a logarithmic factor. BenchmarkAvailViewRetime, the index
// alone under the admission test's traffic, is one more such family (nodes=16
// → nodes=10000). The same stream carries BenchmarkSubmitQueued/
// queue=<n>/mix=<m>, and the mode gates the incremental admission test's
// contract on it the same way: for late-deadline arrivals — ordered behind
// the whole waiting queue, which keeps its plans — ns/op at queue=128 may
// exceed queue=8 by at most 3x, where a whole-queue replan grows ~16x. The
// -benchmem column of the same benchmark gates the plan kernel: an arrival
// into the middle of 128 waiting tasks (mix=uniform) plans about 64 of them
// afresh and may allocate at most 6 objects doing it — a fresh plan is cut
// from the scheduler's plan arena, so only a chunk refill every ten or so
// plans allocates — where plans that allocate their own memory spend about
// 80 and a node search that allocates per candidate about 300. And the
// demand bound: an overload reject
// (mix=saturated) at queue=128 must cost exactly 0 plans/op — no Plan call,
// fresh or kept-prior offer — and at most 1 alloc/op, the task itself; both
// are counts and repeat exactly on any machine. Its queue=8 → queue=128
// ns/op growth — one pass over the queue's σ — is reported, not gated.
//
// -contention mode gates the optimistic-admission contract
// (BENCH_contention.json) from BenchmarkSubmitContention/mix=<m>/mode=<m>/
// gos=<n> results. The hot-mix gate is machine-adaptive via the GOMAXPROCS
// suffix Go appends to benchmark names (absent suffix = 1 proc), because
// its premise is real parallelism: on a single proc submitters never
// overlap, so speculation never conflicts, and the gate is skipped with a
// note rather than measured against a premise the machine cannot exhibit.
// The cold mix is reported, not gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of the test2json record shape benchgate reads.
// Package matters because test2json splits a benchmark result across
// output events — the name flushes before the timing continuation — so
// fragments must be reassembled into lines per package.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchLine matches an index benchmark result line, e.g.
// "BenchmarkSubmit/nodes=10000-8     28905     3913 ns/op    841 B/op".
var benchLine = regexp.MustCompile(`^(Benchmark[^\s/]+)/nodes=(\d+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// queuedLine matches a queue-depth benchmark result line, e.g.
// "BenchmarkSubmitQueued/queue=128/mix=late-8  400000  2435 ns/op  129.0 plans/op  232 B/op  5 allocs/op"
// (the last two columns are there under -benchmem).
var queuedLine = regexp.MustCompile(`^BenchmarkSubmitQueued/queue=(\d+)/mix=(\w+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) plans/op)?(?:\s+\d+ B/op\s+(\d+) allocs/op)?`)

// contLine matches a contention benchmark result line, e.g.
// "BenchmarkSubmitContention/mix=hot/mode=spec/gos=8-16   300   3913 ns/op".
var contLine = regexp.MustCompile(`^BenchmarkSubmitContention/mix=(\w+)/mode=(\w+)/gos=(\d+)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	in := flag.String("in", "BENCH_index.json", "go test -json benchmark stream to gate")
	maxRatio := flag.Float64("max-ratio", 15, "max allowed ns/op growth, largest vs smallest fleet")
	contention := flag.Bool("contention", false, "gate BenchmarkSubmitContention results instead of the nodes=<n> index families")
	hotFloor := flag.Float64("hot-floor", 0.9, "min allowed spec/serial throughput ratio on the 100%-conflict mix")
	flag.Parse()

	f, err := os.Open(*in)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()

	var lines []string
	pending := make(map[string]string) // per-package unterminated output
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Action != "output" {
			continue
		}
		buf := pending[ev.Package] + ev.Output
		for {
			i := strings.IndexByte(buf, '\n')
			if i < 0 {
				break
			}
			lines = append(lines, buf[:i])
			buf = buf[i+1:]
		}
		pending[ev.Package] = buf
	}
	if err := sc.Err(); err != nil {
		fatalf("reading %s: %v", *in, err)
	}
	for _, rest := range pending {
		if rest != "" {
			lines = append(lines, rest)
		}
	}

	if *contention {
		gateContention(lines, *in, *hotFloor)
		return
	}
	gateIndex(lines, *in, *maxRatio)
	gateQueued(lines, *in)
}

// minBaseFleet is the smallest fleet a growth ratio is taken over: below
// it an operation on the index is a few dozen instructions and the ratio
// would measure the benchmark's loop.
const minBaseFleet = 16

// gateIndex fails when any nodes=<n> family's ns/op grows by more than
// maxRatio from the smallest fleet of at least minBaseFleet nodes to the
// largest.
func gateIndex(lines []string, in string, maxRatio float64) {
	// ns[family][fleet size] = best observed ns/op. Taking the minimum over
	// repeated runs filters scheduling noise without hiding real growth.
	ns := make(map[string]map[int]float64)
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		nodes, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		if ns[m[1]] == nil {
			ns[m[1]] = make(map[int]float64)
		}
		if cur, ok := ns[m[1]][nodes]; !ok || v < cur {
			ns[m[1]][nodes] = v
		}
	}
	if len(ns) == 0 {
		fatalf("no nodes=<n> benchmark results in %s", in)
	}

	families := make([]string, 0, len(ns))
	for fam := range ns {
		families = append(families, fam)
	}
	sort.Strings(families)
	failed := false
	for _, fam := range families {
		sizes := make([]int, 0, len(ns[fam]))
		for n := range ns[fam] {
			if n >= minBaseFleet {
				sizes = append(sizes, n)
			}
		}
		sort.Ints(sizes)
		if len(sizes) < 2 {
			fatalf("%s: fewer than two fleet sizes of %d nodes or more, nothing to compare", fam, minBaseFleet)
		}
		lo, hi := sizes[0], sizes[len(sizes)-1]
		ratio := ns[fam][hi] / ns[fam][lo]
		verdict := "ok"
		if ratio > maxRatio {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("benchgate: %s nodes=%d %.1f ns/op -> nodes=%d %.1f ns/op: x%.2f growth over x%d fleet (limit x%.1f) %s\n",
			fam, lo, ns[fam][lo], hi, ns[fam][hi], ratio, hi/lo, maxRatio, verdict)
	}
	if failed {
		fatalf("per-submit cost grows super-linearly with the fleet")
	}
}

// gateQueued fails when a late-deadline arrival's ns/op grows by more than
// maxRatio from a waiting queue of 8 to one of 128, when an arrival into
// the middle of 128 waiting tasks allocates more than maxAllocs objects, or
// when an overload reject behind 128 waiting tasks costs a Plan call or an
// allocation beside the task.
func gateQueued(lines []string, in string) {
	const lo, hi = 8, 128
	const maxRatio = 3.0
	const maxAllocs = 6
	const maxSatAllocs = 1
	ns := map[string]map[int]float64{"late": {}, "saturated": {}} // mix -> queue depth -> best observed ns/op
	allocs := map[string]int{"uniform": -1, "saturated": -1}      // mix -> fewest observed allocs/op at queue=hi
	satPlans := -1.0                                              // most observed plans/op, queue=hi mix=saturated
	for _, line := range lines {
		m := queuedLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		depth, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		mix := m[2]
		if a, err := strconv.Atoi(m[5]); err == nil && depth == hi {
			if cur, gated := allocs[mix]; gated && (cur < 0 || a < cur) {
				allocs[mix] = a
			}
		}
		if p, err := strconv.ParseFloat(m[4], 64); err == nil && mix == "saturated" && depth == hi && p > satPlans {
			satPlans = p
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil || ns[mix] == nil {
			continue
		}
		if cur, ok := ns[mix][depth]; !ok || v < cur {
			ns[mix][depth] = v
		}
	}
	for mix, byDepth := range ns {
		if byDepth[lo] == 0 || byDepth[hi] == 0 {
			fatalf("no BenchmarkSubmitQueued mix=%s results for queue=%d and queue=%d in %s", mix, lo, hi, in)
		}
	}
	for mix, a := range allocs {
		if a < 0 {
			fatalf("no BenchmarkSubmitQueued/queue=%d/mix=%s allocs/op in %s (run with -benchmem)", hi, mix, in)
		}
	}
	if satPlans < 0 {
		fatalf("no BenchmarkSubmitQueued/queue=%d/mix=saturated plans/op in %s", hi, in)
	}
	verdict := func(fail bool) string {
		if fail {
			return "FAIL"
		}
		return "ok"
	}
	late, sat := ns["late"], ns["saturated"]
	ratio := late[hi] / late[lo]
	fmt.Printf("benchgate: BenchmarkSubmitQueued mix=late queue=%d %.1f ns/op -> queue=%d %.1f ns/op: x%.2f growth over x%d queue (limit x%.1f) %s\n",
		lo, late[lo], hi, late[hi], ratio, hi/lo, maxRatio, verdict(ratio > maxRatio))
	fmt.Printf("benchgate: BenchmarkSubmitQueued mix=uniform queue=%d %d allocs/op (limit %d) %s\n",
		hi, allocs["uniform"], maxAllocs, verdict(allocs["uniform"] > maxAllocs))
	fmt.Printf("benchgate: BenchmarkSubmitQueued mix=saturated queue=%d %g plans/op (limit 0), %d allocs/op (limit %d) %s\n",
		hi, satPlans, allocs["saturated"], maxSatAllocs, verdict(satPlans > 0 || allocs["saturated"] > maxSatAllocs))
	fmt.Printf("benchgate: BenchmarkSubmitQueued mix=saturated queue=%d %.1f ns/op -> queue=%d %.1f ns/op: x%.2f growth over x%d queue (reported, not gated)\n",
		lo, sat[lo], hi, sat[hi], sat[hi]/sat[lo], hi/lo)
	if ratio > maxRatio {
		fatalf("a late-deadline arrival pays for the waiting queue ahead of it")
	}
	if allocs["uniform"] > maxAllocs {
		fatalf("fresh plans allocate beside the plan arena")
	}
	if satPlans > 0 || allocs["saturated"] > maxSatAllocs {
		fatalf("an overload reject the demand bound decides costs a plan or an allocation beside the task")
	}
}

// gateContention reports the cold mix and enforces the hot-mix contract:
//
//   - cold (low-conflict) mix: mode=spec at gos=8 against gos=1 and against
//     mode=serial at gos=8, reported without failing. A lone submitter
//     never speculates, so gos=1 times the live, serialized road under
//     either mode. The scaling bar this mix used to enforce (×0.45 per
//     proc, capped at ×2) was set against a lone submitter's speculative
//     road, about ×1.4 the live road's ns/op on 2 procs, and no bar against
//     the live road has been measured on 4 or more procs; on 2 procs
//     serialized matches or beats speculative at every width.
//
//   - hot (100%-conflict) mix: at every contended width (gos ≥ 4) the
//     speculative path must retain at least hotFloor of the serialized
//     throughput, i.e. the adaptive conflict gate must actually degenerate
//     to near-serialized admission instead of burning planning work that
//     always loses the install race. Skipped on single-proc streams, where
//     submitters never overlap and so no conflict ever occurs to trigger
//     the gate, and reported without failing below 4 procs: with 4 to 16
//     submitters on 2 or 3 procs the ratio is set by which goroutine the
//     scheduler preempts inside the lock, and an unchanged tree reads
//     x0.46 to x1.09 from run to run.
func gateContention(lines []string, in string, hotFloor float64) {
	// ns[mix][mode][gos] = best observed ns/op.
	ns := map[string]map[string]map[int]float64{}
	procs := 1
	for _, line := range lines {
		m := contLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		gos, err := strconv.Atoi(m[3])
		if err != nil {
			continue
		}
		if m[4] != "" {
			if p, err := strconv.Atoi(m[4]); err == nil && p > procs {
				procs = p
			}
		}
		v, err := strconv.ParseFloat(m[5], 64)
		if err != nil {
			continue
		}
		if ns[m[1]] == nil {
			ns[m[1]] = map[string]map[int]float64{}
		}
		if ns[m[1]][m[2]] == nil {
			ns[m[1]][m[2]] = map[int]float64{}
		}
		if cur, ok := ns[m[1]][m[2]][gos]; !ok || v < cur {
			ns[m[1]][m[2]][gos] = v
		}
	}
	if len(ns) == 0 {
		fatalf("no BenchmarkSubmitContention results in %s", in)
	}

	failed := false

	// Cold-mix report.
	cold, coldSerial := ns["cold"]["spec"], ns["cold"]["serial"]
	if cold[1] == 0 || cold[8] == 0 || coldSerial[8] == 0 {
		fatalf("cold mix: missing mode=spec gos=1/gos=8 or mode=serial gos=8 result in %s", in)
	}
	fmt.Printf("benchgate: cold mix gos=8 spec %.1f ns/op: x%.2f the throughput of gos=1 (%.1f ns/op), x%.2f of serial gos=8 (%.1f ns/op) on %d procs (reported, not gated)\n",
		cold[8], cold[1]/cold[8], cold[1], coldSerial[8]/cold[8], coldSerial[8], procs)

	// Hot-mix overhead gate.
	if procs < 2 {
		fmt.Printf("benchgate: hot mix: submitters cannot overlap on %d proc(s), no conflicts occur, overhead gate skipped\n", procs)
	} else {
		gated := 0
		var widths []int
		for gos := range ns["hot"]["spec"] {
			widths = append(widths, gos)
		}
		sort.Ints(widths)
		for _, gos := range widths {
			if gos < 4 {
				continue // uncontended widths: conflicts too rare to engage the gate
			}
			serial, ok := ns["hot"]["serial"][gos]
			if !ok {
				continue
			}
			gated++
			ratio := serial / ns["hot"]["spec"][gos] // spec/serial throughput
			verdict := "ok"
			switch {
			case ratio >= hotFloor:
			case procs < 4:
				verdict = "below the floor, not gated on fewer than 4 procs"
			default:
				verdict = "FAIL"
				failed = true
			}
			fmt.Printf("benchgate: hot mix gos=%d spec %.1f ns/op vs serial %.1f ns/op: x%.2f of serialized throughput (floor x%.2f) %s\n",
				gos, ns["hot"]["spec"][gos], serial, ratio, hotFloor, verdict)
		}
		if gated == 0 {
			fatalf("hot mix: no gos>=4 spec/serial pairs in %s", in)
		}
	}

	if failed {
		fatalf("optimistic admission breaks its contention contract")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
