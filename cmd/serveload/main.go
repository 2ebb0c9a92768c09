// Command serveload is the open-loop load generator for the simulation
// job server: it stands up an in-process server (real HTTP transport),
// submits a fixed script of jobs across tenants and priorities, and
// reports sustained throughput, time-to-first-step percentiles,
// preemption latency, and the warm/cold setup split of the artifact
// cache. Every latency is wall clock, so it prints a report and gates
// nothing; ServeLoad's test holds the liveness (every job finishes).
//
// Example:
//
//	serveload -slots 2 -jobs 24 -rate 50
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serveload: ")

	slots := flag.Int("slots", 2, "server runner slots")
	jobs := flag.Int("jobs", 24, "jobs to submit")
	tenants := flag.Int("tenants", 3, "tenant ids to round-robin over")
	preemptEvery := flag.Int("preempt-every", 6, "every k-th job is high priority (0 disables preemption load)")
	ranks := flag.Int("ranks", 2, "ranks per job")
	n := flag.Int("n", 5, "GLL points per direction per element")
	local := flag.Int("local", 1, "elements per rank per direction")
	steps := flag.Int("steps", 5, "timesteps per job")
	rate := flag.Float64("rate", 0, "open-loop submission rate in jobs/sec (0 = burst)")
	cli.Parse()

	opts := bench.ServeLoadOptions{
		Slots: *slots, Jobs: *jobs, Tenants: *tenants, PreemptEvery: *preemptEvery,
		Ranks: *ranks, N: *n, LocalElems: *local, Steps: *steps, RatePerSec: *rate,
	}
	res, err := bench.ServeLoad(opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("submitted %d jobs (%d tenants, %d slots): %d completed in %.3fs — %.1f jobs/sec\n",
		res.Submitted, *tenants, *slots, res.Completed, res.WallSeconds, res.JobsPerSec)
	fmt.Printf("time to first step: p50 %.4fs  p99 %.4fs\n", res.TTFSP50, res.TTFSP99)
	fmt.Printf("setup: cold median %.4fs, warm median %.4fs (%d cache hits)\n",
		res.ColdSetupS, res.WarmSetupS, res.CacheHits)
	if res.Preemptions > 0 {
		fmt.Printf("preemptions: %d (latency p50 %.4fs  p99 %.4fs), %d resumes\n",
			res.Preemptions, res.PreemptP50, res.PreemptP99, res.Resumes)
	}
}
