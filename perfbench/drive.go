package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"melody"
	"melody/internal/platform"
)

// assignment is one (task, worker, payment) of an outcome.
type assignment struct {
	task, worker string
	payment      float64
}

// digest flattens an outcome with %.17g payments, so equal digests mean
// bit-identical allocations and payments.
func digest(as []assignment, total float64) string {
	var b strings.Builder
	for _, a := range as {
		fmt.Fprintf(&b, "%s/%s=%.17g;", a.task, a.worker, a.payment)
	}
	fmt.Fprintf(&b, "total=%.17g", total)
	return b.String()
}

// runsResult is what the timed phase of one rep produced.
type runsResult struct {
	digests map[string]string // run ID -> outcome digest
	runMS   []float64         // open-to-finish latency per run, client side
	bids    int64             // accepted bids
}

// drive runs every tenant's runs over HTTP, one closed-loop client per
// tenant: each request is sent only after the previous one returned.
func (st *stack) drive(ctx context.Context) (runsResult, error) {
	res := runsResult{digests: make(map[string]string)}
	var mu sync.Mutex
	err := eachTenant(st.in, func(t int, ti tenantInput) error {
		c := st.clients[t]
		for _, ri := range ti.runs {
			start := time.Now()
			d, bids, err := st.sendRun(ctx, c, ti.name, ri)
			if err != nil {
				return fmt.Errorf("run %s: %w", ri.id, err)
			}
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			mu.Lock()
			res.digests[ri.id] = d
			res.runMS = append(res.runMS, ms)
			res.bids += bids
			mu.Unlock()
		}
		return nil
	})
	return res, err
}

// sendRun sends one run: open, bids with the quality reads before the
// middle round of them, close, scores, finish.
func (st *stack) sendRun(ctx context.Context, c *platform.Client, tenant string, ri runInput) (string, int64, error) {
	sp := st.in.spec
	tasks := make([]platform.TaskSpec, len(ri.tasks))
	for i, id := range ri.tasks {
		tasks[i] = platform.TaskSpec{ID: id, Threshold: threshold}
	}
	var run *platform.RunAPI
	err := st.ops.do(ctx, "open", func(ctx context.Context) (err error) {
		run, err = c.OpenRunID(ctx, ri.id, tenant, tasks, sp.budget)
		return err
	})
	if err != nil {
		return "", 0, err
	}
	var bids int64
	for k, round := range ri.rounds {
		if k == len(ri.rounds)/2 {
			if err := st.readQuality(ctx, c, ri.reads); err != nil {
				return "", bids, err
			}
		}
		if sp.batch == 0 {
			for _, b := range round {
				if err := st.ops.do(ctx, "bid", func(ctx context.Context) error {
					return run.SubmitBid(ctx, b.worker, b.cost, b.freq)
				}); err != nil {
					return "", bids, err
				}
				bids++
			}
			continue
		}
		for lo := 0; lo < len(round); lo += sp.batch {
			hi := min(lo+sp.batch, len(round))
			reqs := make([]platform.BidRequest, 0, hi-lo)
			for _, b := range round[lo:hi] {
				reqs = append(reqs, platform.BidRequest{WorkerID: b.worker, Cost: b.cost, Frequency: b.freq})
			}
			if err := st.ops.do(ctx, "bid_batch", func(ctx context.Context) error {
				res, err := run.SubmitBids(ctx, reqs)
				if err != nil {
					return err
				}
				return res.Err()
			}); err != nil {
				return "", bids, err
			}
			bids += int64(len(reqs))
		}
	}
	var out platform.OutcomeResponse
	if err := st.ops.do(ctx, "close", func(ctx context.Context) (err error) {
		out, err = run.CloseAuction(ctx)
		return err
	}); err != nil {
		return "", bids, err
	}
	as := make([]assignment, len(out.Assignments))
	scores := make([]platform.ScoreRequest, len(out.Assignments))
	for i, a := range out.Assignments {
		as[i] = assignment{a.TaskID, a.WorkerID, a.Payment}
		scores[i] = platform.ScoreRequest{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: score(tenant, ri.id, a.WorkerID, a.TaskID)}
	}
	if len(scores) > 0 {
		if err := st.ops.do(ctx, "score_batch", func(ctx context.Context) error {
			res, err := run.SubmitScores(ctx, scores)
			if err != nil {
				return err
			}
			return res.Err()
		}); err != nil {
			return "", bids, err
		}
	}
	if err := st.ops.do(ctx, "finish", run.FinishRun); err != nil {
		return "", bids, err
	}
	return digest(as, out.TotalPayment), bids, nil
}

func (st *stack) readQuality(ctx context.Context, c *platform.Client, workers []string) error {
	for _, w := range workers {
		if err := st.ops.do(ctx, "quality", func(ctx context.Context) error {
			_, err := c.Quality(ctx, w)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// reference runs the same inputs serially, in process, straight against a
// fresh RunScheduler with no HTTP and no WAL, and returns each run's
// outcome digest. Every tenant owns its estimator and auction, so the
// concurrent product path must reproduce these digests exactly.
func reference(in inputs) (map[string]string, error) {
	ctx := context.Background()
	sched, _, err := newScheduler(in, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	sp := in.spec
	for _, ti := range in.tenants {
		policy := melody.UnlimitedTenantPolicy()
		policy.BudgetQuota = sp.budget * float64(sp.runs)
		policy.Weight = 1
		if err := sched.SetTenantPolicy(ctx, ti.name, policy); err != nil {
			return nil, err
		}
		for _, w := range ti.workers {
			if err := sched.RegisterWorker(ctx, w); err != nil {
				return nil, err
			}
		}
	}
	out := make(map[string]string)
	for _, ti := range in.tenants {
		for _, ri := range ti.runs {
			tasks := make([]melody.Task, len(ri.tasks))
			for i, id := range ri.tasks {
				tasks[i] = melody.Task{ID: id, Threshold: threshold}
			}
			if err := sched.OpenRun(ctx, ri.id, ti.name, tasks, sp.budget); err != nil {
				return nil, err
			}
			for _, round := range ri.rounds {
				bids := make([]melody.WorkerBid, len(round))
				for i, b := range round {
					bids[i] = melody.WorkerBid{WorkerID: b.worker, Bid: melody.Bid{Cost: b.cost, Frequency: b.freq}}
				}
				if err := sched.SubmitBids(ctx, ri.id, bids).Err(); err != nil {
					return nil, err
				}
			}
			o, err := sched.CloseAuction(ctx, ri.id)
			if err != nil {
				return nil, err
			}
			as := make([]assignment, len(o.Assignments))
			scores := make([]melody.TaskScore, len(o.Assignments))
			for i, a := range o.Assignments {
				as[i] = assignment{a.TaskID, a.WorkerID, a.Payment}
				scores[i] = melody.TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: score(ti.name, ri.id, a.WorkerID, a.TaskID)}
			}
			if err := sched.SubmitScores(ctx, ri.id, scores).Err(); err != nil {
				return nil, err
			}
			if err := sched.FinishRun(ctx, ri.id); err != nil {
				return nil, err
			}
			out[ri.id] = digest(as, o.TotalPayment)
		}
	}
	return out, nil
}
