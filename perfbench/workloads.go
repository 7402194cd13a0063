package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/gen"
)

// workload is one traffic mix against one daemon configuration.
type workload struct {
	name string
	pop  int  // population size
	tcp  bool // engine passes run on tcp workers instead of in-process
	live bool // mutable population with standing queries
	// gen builds the workload's inputs from its seed.
	gen func(in *inputs, rng *rand.Rand) error
	// drive runs the measured phase against a ready daemon.
	drive func(r *runner, d *daemon, deadline time.Time) *phase
}

// The three workloads. Next to each: why it was chosen, which layers it
// loads and which it bypasses, and which end-to-end metrics a change to each
// layer should leave unchanged on it (round_* and read_* stand for the
// workload's own operations; see README.md).
var workloads = []*workload{
	// campaign-1e6: pop=10⁶, in-process engine, nocache. A closed loop of
	// nproc clients; each iteration submits one paper Medium group (6 SSDs ×
	// 64 strata over 3 attributes, 1000 individuals per SSD) asynchronously
	// and collects all six answers through GET /v1/result before the next.
	// Groups come from a pool of 12 distinct groups, with one fresh sampling
	// seed per group. The pool is drawn with a fixed seed (campaignPoolSeed)
	// over the seeded population: a group's pass costs 165–405 ms at 10⁶
	// depending on its attribute order, and the ~11 rounds of a run cannot
	// average that out, so a pool drawn per seed made the runs' spread across
	// seeds exceed the metrics' bounds.
	//
	// Why: every tuple matches one stratum of every query, so map emit,
	// combine, GC and memory dominate, and the working set is far beyond CPU
	// caches; this is where sampling in the mapper and a columnar population
	// act. At the seed commit the six submissions arrive further apart than
	// the 5 ms window (validating one Medium SSD alone takes ~20 ms), so
	// almost every one runs as its own MR-SQE pass; a change that lets them
	// coalesce shows as serve.passes_per_query falling well below 1. Under
	// load the six submissions take about half of a round, because each
	// request validates its query while passes hold both cores.
	// Loads: stratified, mapreduce (map, combine), sampling, query, serve
	// request path (validation), proc (GC, memory).
	// Bypasses: worker, live.
	// Unchanged by: worker or live changes — every metric.
	{
		name: "campaign-1e6", pop: 1_000_000,
		gen: func(in *inputs, rng *rand.Rand) error {
			var err error
			in.groups, err = genGroups(gen.Medium, 12, 1000, in.pop, rand.New(rand.NewSource(campaignPoolSeed)))
			return err
		},
		drive: driveCampaign,
	},
	// adhoc-tcp-1e5: pop=10⁵ on the tcp backend (worker.NewTCPExecutor with
	// nproc local workers), nocache. A closed loop of nproc clients, each
	// making blocking POST /v1/sample calls, each one SSD of the paper Small
	// shape (16 strata over 2 attributes, 100 individuals) from a seeded
	// pool of 66 distinct SSDs, with a fresh seed per request.
	//
	// Why: every answer ships the resident splits to workers over the
	// binary wire, so worker and wire take most of the time, and per-pass
	// fixed costs (window, pool, scheduling) show. No other workload
	// touches worker; it is where deleting the duplicate engine and wire
	// paths must show no regression.
	// Loads: worker, wire, serve batching window and pass pool, mapreduce
	// shuffle, stratified (Small SSDs at 10⁵).
	// Bypasses: live, the campaign-sized map and combine.
	// Unchanged by: live changes — every metric; changes to Medium-query
	// validation — every metric (Small SSDs validate in ~1 ms).
	{
		name: "adhoc-tcp-1e5", pop: 100_000, tcp: true,
		gen: func(in *inputs, rng *rand.Rand) error {
			groups, err := genGroups(gen.Small, 22, 100, in.pop, rng)
			in.adhoc = flatten(groups)
			in.groups = groups[:1]
			return err
		},
		drive: driveAdhoc,
	},
	// live-churn-1e5: pop=10⁵ in live mode, in-process engine. At set-up one
	// paper Medium group is registered as standing queries (timer push
	// trigger); each set-up repeat registers a different group. Connection
	// 1 is an open-loop mutation feed of rejection-free 16-op
	// insert/update/delete batches at a fixed rate, each timed from when it
	// was due. The other nproc−1 connections are a closed-loop
	// reader: nine reads in ten are warm reads of a standing query, one in
	// ten an ad-hoc Small-group SSD with nocache, which runs an engine pass
	// under the population read lock.
	//
	// Why: writes run beside reads on one population, so live maintenance,
	// its lock, and the serve request path (parse, canonicalize, JSON-encode
	// 1000 individuals) do most of the work while the engine does little.
	// Loads: live (maintenance, lock), serve request path, query
	// parse/validate/canonicalize, the engine for the ad-hoc tenth.
	// Bypasses: worker.
	// Unchanged by: worker changes — every metric; engine-only changes
	// (stratified, mapreduce, sampling) — round_* and read_*.
	{
		name: "live-churn-1e5", pop: 100_000, live: true,
		gen: func(in *inputs, rng *rand.Rand) error {
			standing, err := genGroups(gen.Medium, setupRepeats, 1000, in.pop, rng)
			if err != nil {
				return err
			}
			groups, err := genGroups(gen.Small, 8, 100, in.pop, rng)
			if err != nil {
				return err
			}
			in.standing = standing
			in.adhoc = flatten(groups)
			in.groups = groups[:1]
			return nil
		},
		drive: driveLive,
	},
}

// campaignPoolSeed draws campaign-1e6's query pool (see its definition).
const campaignPoolSeed = 1

// The daemon runs at strata serve's CLI defaults.
const (
	daemonSlaves = 4
	daemonWindow = 5 * time.Millisecond
)

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
