package main

import (
	"fmt"
	"math/rand/v2"
)

// spec sizes one workload. Work per rep is fixed by these numbers; only the
// number of reps depends on --seconds.
type spec struct {
	name string
	// tenants drive their runs concurrently, one closed-loop client each.
	tenants int
	// population is the registered worker count per tenant; every tenant's
	// workers share the one registry.
	population int
	// bidders is how many of a tenant's workers bid in each run.
	bidders int
	// rotate is how far the bidder window slides between a tenant's runs,
	// so consecutive runs differ by joins and leaves.
	rotate int
	tasks  int
	// runs is the number of runs each tenant completes per rep.
	runs int
	// bidsPerWorker single-bid requests per bidder per run; 0 selects
	// batched submission of one bid per bidder.
	bidsPerWorker int
	// batch is the SubmitBids batch size when bidsPerWorker is 0.
	batch int
	// redraw is the share of a bidder's costs redrawn between runs.
	redraw float64
	// qualityReads is how many quality estimates a tenant reads per run.
	qualityReads int
	budget       float64
}

// Every task needs a quality coverage of 10, and payouts settle in epochs
// of 2 finished runs, on both workloads.
const (
	threshold  = 10
	epochEvery = 2
)

var specs = map[string]spec{
	// Worker-facing bid storm: many single-bid requests against a small
	// population, so HTTP serving and per-record WAL appends dominate.
	"ingest": {
		name: "ingest", tenants: 2, population: 32, bidders: 32, rotate: 0,
		tasks: 3, runs: 6, bidsPerWorker: 8, qualityReads: 32, budget: 200,
	},
	// Requester-facing long-term season: a large registered population, a
	// rotating bidder subset submitted in batches, and enough runs per rep
	// that EM re-estimation (every 10 runs) falls inside the timed phase.
	"season": {
		name: "season", tenants: 2, population: 2000, bidders: 400, rotate: 100,
		tasks: 20, runs: 40, batch: 100, redraw: 0.1, qualityReads: 4, budget: 400,
	},
}

// bid is one bid as the client sends it.
type bid struct {
	worker string
	cost   float64
	freq   int
}

// runInput is everything a tenant sends in one run.
type runInput struct {
	id    string
	tasks []string
	// rounds holds the bids in send order: one round per resubmission for
	// single-bid workloads, one round of all bidders for batched ones.
	rounds [][]bid
	// reads are the workers whose quality estimate the tenant reads.
	reads []string
}

// tenantInput is one tenant's whole rep.
type tenantInput struct {
	name    string
	workers []string
	runs    []runInput
}

// inputs is a workload's generated input, identical for every rep and every
// process given the seed.
type inputs struct {
	spec    spec
	tenants []tenantInput
}

// generate draws a workload's inputs from seed. Each tenant has its own
// random stream, so its inputs do not depend on the other tenants.
func generate(sp spec, seed uint64) inputs {
	in := inputs{spec: sp}
	for t := 0; t < sp.tenants; t++ {
		rng := rand.New(rand.NewPCG(seed, uint64(t)+1))
		ti := tenantInput{name: fmt.Sprintf("tenant%d", t)}
		costs := make([]float64, sp.population)
		freqs := make([]int, sp.population)
		for w := 0; w < sp.population; w++ {
			ti.workers = append(ti.workers, fmt.Sprintf("t%dw%05d", t, w))
			costs[w] = 1 + rng.Float64()
			freqs[w] = 1 + rng.IntN(2)
		}
		for r := 0; r < sp.runs; r++ {
			ri := runInput{id: fmt.Sprintf("%s-r%03d", ti.name, r)}
			for k := 0; k < sp.tasks; k++ {
				ri.tasks = append(ri.tasks, fmt.Sprintf("%s-k%02d", ri.id, k))
			}
			start := r * sp.rotate
			window := make([]int, sp.bidders)
			for i := range window {
				window[i] = (start + i) % sp.population
			}
			if r > 0 {
				for _, w := range window {
					if rng.Float64() < sp.redraw {
						costs[w] = 1 + rng.Float64()
					}
				}
			}
			if sp.bidsPerWorker > 0 {
				// Resubmissions jitter the cost; the last one stands.
				for k := 0; k < sp.bidsPerWorker; k++ {
					round := make([]bid, 0, len(window))
					for _, w := range window {
						c := costs[w]
						if k < sp.bidsPerWorker-1 {
							c = 1 + rng.Float64()
						}
						round = append(round, bid{worker: ti.workers[w], cost: c, freq: freqs[w]})
					}
					ri.rounds = append(ri.rounds, round)
				}
			} else {
				round := make([]bid, 0, len(window))
				for _, w := range window {
					round = append(round, bid{worker: ti.workers[w], cost: costs[w], freq: freqs[w]})
				}
				ri.rounds = append(ri.rounds, round)
			}
			for i := 0; i < sp.qualityReads; i++ {
				ri.reads = append(ri.reads, ti.workers[window[(i*7)%len(window)]])
			}
			ti.runs = append(ti.runs, ri)
		}
		in.tenants = append(in.tenants, ti)
	}
	return in
}

// totalRuns is the number of runs one rep completes.
func (in inputs) totalRuns() int { return in.spec.tenants * in.spec.runs }

// score is the requester's deterministic score for an assignment: a hash
// of its identity mapped into the quality range [1, 10].
func score(tenant, run, worker, task string) float64 {
	h := uint64(14695981039346656037)
	for _, s := range [...]string{tenant, run, worker, task} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211 // field separator
	}
	return 1 + 9*float64(h%100000)/100000
}
