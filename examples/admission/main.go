// admission demonstrates the workflow behind the paper's footnote 1: in a
// real facility, "rejection" means the administrator (or a proxy program)
// negotiates a feasible deadline with the client and the job is rescheduled
// with modified parameters.
//
// The example drives the admission service directly with a random stream of
// tasks; whenever admission fails with ErrInfeasible, the client retries
// with a 1.5× looser deadline, up to three attempts, emulating a
// multi-tiered QoS agreement ("pay" per response time, as at the UNL
// Research Computing Facility). A subscriber on the service's event stream
// tallies the lifecycle independently of the submission loop.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"rtdls"
)

func main() {
	params := rtdls.Params{Cms: 1, Cps: 100}
	svc, err := rtdls.New(
		rtdls.WithNodes(16),
		rtdls.WithParams(params),
		rtdls.WithPolicy(rtdls.EDF),
		rtdls.WithAlgorithm(rtdls.AlgDLTIIT),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Stream consumer: counts lifecycle events concurrently with the
	// submissions (the ad-hoc Observer wiring of v1 is gone).
	sub := svc.Subscribe(1 << 14)
	counted := make(chan [3]int, 1)
	go func() {
		var n [3]int
		for ev := range sub.C() {
			switch ev.Kind {
			case rtdls.EventAccept:
				n[0]++
			case rtdls.EventReject:
				n[1]++
			case rtdls.EventCommit:
				n[2]++
			}
		}
		counted <- n
	}()

	ctx := context.Background()
	rng := rand.New(rand.NewPCG(7, 2026))
	avgExec := params.ExecTime(200, 16)

	const tasks = 2000
	var (
		now          float64
		id           int64
		firstTry     int
		renegotiated int
		lost         int
		extraDelay   float64 // total deadline concession across saved tasks
	)
	for i := 0; i < tasks; i++ {
		now += rng.ExpFloat64() * avgExec / 0.9 // ~90% load: rejections are common
		sigma := 0.0
		for sigma <= 0 {
			sigma = 200 + 200*rng.NormFloat64()
		}
		deadline := 2 * avgExec * (0.5 + rng.Float64())
		if min := params.ExecTime(sigma, 16); deadline < min {
			deadline = min
		}

		accepted := false
		for attempt := 0; attempt < 3; attempt++ {
			id++
			dec, err := svc.Submit(ctx, rtdls.Task{ID: id, Arrival: now, Sigma: sigma, RelDeadline: deadline})
			if err != nil {
				log.Fatal(err)
			}
			if dec.Accepted {
				if attempt == 0 {
					firstTry++
				} else {
					renegotiated++
					extraDelay += deadline - deadline/poweredHalf(attempt)
				}
				accepted = true
				break
			}
			deadline *= 1.5 // negotiate a looser deadline and resubmit
		}
		if !accepted {
			lost++
		}
	}
	if err := svc.Drain(); err != nil {
		log.Fatal(err)
	}
	st := svc.Stats()
	svc.Close() // closes the event stream; the counter goroutine finishes
	sub.Cancel()
	n := <-counted

	fmt.Println("Deadline renegotiation under EDF-DLT (16 nodes, ~90% load, 2000 clients)")
	fmt.Println()
	fmt.Printf("  admitted first try        %5d (%.1f%%)\n", firstTry, pct(firstTry, tasks))
	fmt.Printf("  saved by renegotiation    %5d (%.1f%%)\n", renegotiated, pct(renegotiated, tasks))
	fmt.Printf("  lost after three attempts %5d (%.1f%%)\n", lost, pct(lost, tasks))
	if renegotiated > 0 {
		fmt.Printf("  mean deadline concession  %.1f time units per renegotiated task\n",
			extraDelay/float64(renegotiated))
	}
	fmt.Println()
	fmt.Printf("event stream saw %d accepts, %d rejects, %d commits (%d dropped);\n",
		n[0], n[1], n[2], st.EventsDropped)
	fmt.Printf("service counters: %d arrivals, %d accepts, %d rejects, utilization %.3f\n",
		st.Arrivals, st.Accepts, st.Rejects, st.Utilization)
	fmt.Println()
	fmt.Println("Each accepted task still carries a hard guarantee for its (possibly")
	fmt.Println("renegotiated) deadline — the schedulability test re-verified the whole")
	fmt.Println("waiting queue at every attempt.")
}

func poweredHalf(attempts int) float64 {
	f := 1.0
	for i := 0; i < attempts; i++ {
		f *= 1.5
	}
	return f
}

func pct(a, b int) float64 { return 100 * float64(a) / float64(b) }
