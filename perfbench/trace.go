package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"melody"
	"melody/internal/platform"
)

// span is one timed call at a layer boundary. Spans of one request share
// Trace, the ID of the client span that started it. Calls > 1 marks an
// aggregate of that many consecutive calls (estimator updates).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a rep's spans in memory; they are written out at the end.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64         { return t.next.Add(1) }
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since returns the spans that started at or after mark.
func (t *tracer) since(mark int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= mark {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// spanMiddleware moves the client span ID from spanHeader into the
// request context, where the traced backend finds its parent.
func spanMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64); err == nil {
			r = r.WithContext(context.WithValue(r.Context(), spanKey{}, id))
		}
		next.ServeHTTP(w, r)
	})
}

// tracedBackend is a MultiRunBackend decorator timing every run-phase call
// into the persistent scheduler (scheduler + WAL) as a "scheduler.<op>"
// span, with the tenant estimator's work during the call as aggregate
// child spans.
type tracedBackend struct {
	platform.MultiRunBackend
	tr   *tracer
	ests *estimators

	mu      sync.Mutex
	tenants map[string]string // run ID -> tenant
}

func newTracedBackend(next platform.MultiRunBackend, tr *tracer, ests *estimators) *tracedBackend {
	return &tracedBackend{MultiRunBackend: next, tr: tr, ests: ests, tenants: make(map[string]string)}
}

func (b *tracedBackend) tenantOf(runID string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tenants[runID]
}

// span times fn as a backend span under the request's client span.
func (b *tracedBackend) span(ctx context.Context, op, tenant string, fn func()) {
	parent, _ := ctx.Value(spanKey{}).(uint64)
	id := b.tr.newID()
	est := b.ests.get(tenant)
	var before estCounts
	if est != nil {
		before = est.counts()
	}
	start := time.Now()
	fn()
	end := time.Now()
	b.tr.add(span{ID: id, Parent: parent, Trace: parent, Name: "scheduler." + op, Start: b.tr.ns(start), End: b.tr.ns(end)})
	if est == nil {
		return
	}
	now := est.counts()
	d := now.sub(before)
	// The estimator's calls are sequential inside the backend call; each
	// kind is recorded as one aggregate child span lasting its call count
	// times the sampled mean call time.
	for _, c := range []struct {
		name  string
		calls int64
		mean  float64
	}{{"quality.estimate", d.estimate.calls, now.estimate.meanNS()}, {"quality.observe", d.observe.calls, now.observe.meanNS()}} {
		if c.calls > 0 {
			b.tr.add(span{ID: b.tr.newID(), Parent: id, Trace: parent, Name: c.name,
				Start: b.tr.ns(start), End: b.tr.ns(start) + int64(float64(c.calls)*c.mean), Calls: c.calls})
		}
	}
}

func (b *tracedBackend) OpenRun(ctx context.Context, runID, tenant string, tasks []melody.Task, budget float64) (err error) {
	b.mu.Lock()
	b.tenants[runID] = tenant
	b.mu.Unlock()
	b.span(ctx, "open", tenant, func() { err = b.MultiRunBackend.OpenRun(ctx, runID, tenant, tasks, budget) })
	return err
}

func (b *tracedBackend) SubmitBid(ctx context.Context, runID, workerID string, bid melody.Bid) (err error) {
	b.span(ctx, "bid", b.tenantOf(runID), func() { err = b.MultiRunBackend.SubmitBid(ctx, runID, workerID, bid) })
	return err
}

func (b *tracedBackend) SubmitBids(ctx context.Context, runID string, bids []melody.WorkerBid) (res melody.BatchResult) {
	b.span(ctx, "bid", b.tenantOf(runID), func() { res = b.MultiRunBackend.SubmitBids(ctx, runID, bids) })
	return res
}

func (b *tracedBackend) CloseAuction(ctx context.Context, runID string) (out *melody.Outcome, err error) {
	b.span(ctx, "close", b.tenantOf(runID), func() { out, err = b.MultiRunBackend.CloseAuction(ctx, runID) })
	return out, err
}

func (b *tracedBackend) SubmitScore(ctx context.Context, runID, workerID, taskID string, score float64) (err error) {
	b.span(ctx, "score", b.tenantOf(runID), func() { err = b.MultiRunBackend.SubmitScore(ctx, runID, workerID, taskID, score) })
	return err
}

func (b *tracedBackend) SubmitScores(ctx context.Context, runID string, scores []melody.TaskScore) (res melody.BatchResult) {
	b.span(ctx, "score", b.tenantOf(runID), func() { res = b.MultiRunBackend.SubmitScores(ctx, runID, scores) })
	return res
}

func (b *tracedBackend) FinishRun(ctx context.Context, runID string) (err error) {
	b.span(ctx, "finish", b.tenantOf(runID), func() { err = b.MultiRunBackend.FinishRun(ctx, runID) })
	return err
}

// Quality has no context in the backend interface, so its span has no
// parent link. Platform self time is taken from span totals and does not
// need one.
func (b *tracedBackend) Quality(tenant, workerID string) (q float64, err error) {
	b.span(context.Background(), "quality", tenant, func() { q, err = b.MultiRunBackend.Quality(tenant, workerID) })
	return q, err
}

// sampleEvery sets the estimator decorator's timing sample: every call is
// counted, every sampleEvery-th is timed. A clock read costs about as much
// as one Observe, so timing every call would double the estimator's cost.
const sampleEvery = 16

// callStats counts calls of one estimator method and times a sample.
type callStats struct{ calls, timed, timedNS atomic.Int64 }

func (c *callStats) do(fn func()) {
	if c.calls.Add(1)%sampleEvery != 0 {
		fn()
		return
	}
	start := time.Now()
	fn()
	c.timedNS.Add(time.Since(start).Nanoseconds())
	c.timed.Add(1)
}

func (c *callStats) load() callCount {
	return callCount{c.calls.Load(), c.timed.Load(), c.timedNS.Load()}
}

// callCount is a reading of callStats.
type callCount struct{ calls, timed, timedNS int64 }

func (c callCount) sub(o callCount) callCount {
	return callCount{c.calls - o.calls, c.timed - o.timed, c.timedNS - o.timedNS}
}

func (c callCount) add(o callCount) callCount {
	return callCount{c.calls + o.calls, c.timed + o.timed, c.timedNS + o.timedNS}
}

// meanNS is the sampled mean duration of one call.
func (c callCount) meanNS() float64 {
	if c.timed == 0 {
		return 0
	}
	return float64(c.timedNS) / float64(c.timed)
}

// estCounts is a tracedEstimator's running totals.
type estCounts struct{ estimate, observe callCount }

func (c estCounts) sub(o estCounts) estCounts {
	return estCounts{c.estimate.sub(o.estimate), c.observe.sub(o.observe)}
}

// tracedEstimator is an Estimator decorator counting and timing calls.
type tracedEstimator struct {
	inner             melody.Estimator
	estimate, observe callStats
}

func (e *tracedEstimator) Name() string { return e.inner.Name() }

func (e *tracedEstimator) Estimate(workerID string) (q float64) {
	e.estimate.do(func() { q = e.inner.Estimate(workerID) })
	return q
}

func (e *tracedEstimator) Observe(workerID string, scores []float64) (err error) {
	e.observe.do(func() { err = e.inner.Observe(workerID, scores) })
	return err
}

func (e *tracedEstimator) counts() estCounts {
	return estCounts{e.estimate.load(), e.observe.load()}
}

// estimators is the traced scheduler's NewEstimator: it builds the
// platform's quality tracker per tenant and keeps the decorators.
type estimators struct {
	cfg      melody.QualityTrackerConfig
	mu       sync.Mutex
	byTenant map[string]*tracedEstimator
}

func newEstimators(cfg melody.QualityTrackerConfig) *estimators {
	return &estimators{cfg: cfg, byTenant: make(map[string]*tracedEstimator)}
}

func (s *estimators) build(tenant string) (melody.Estimator, error) {
	inner, err := melody.NewQualityTracker(s.cfg)
	if err != nil {
		return nil, err
	}
	e := &tracedEstimator{inner: inner}
	s.mu.Lock()
	s.byTenant[tenant] = e
	s.mu.Unlock()
	return e, nil
}

func (s *estimators) get(tenant string) *tracedEstimator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byTenant[tenant]
}

// total sums every tenant's counts.
func (s *estimators) total() estCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c estCounts
	for _, e := range s.byTenant {
		d := e.counts()
		c.estimate = c.estimate.add(d.estimate)
		c.observe = c.observe.add(d.observe)
	}
	return c
}
