package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"melody"
	"melody/internal/eventlog"
	"melody/internal/obs"
	"melody/internal/platform"
)

// stack is one booted product-path serving stack, assembled the way
// `melody-platform -multi -wal` assembles it: a RunScheduler with a funded
// ledger and epoch settlement, wrapped by a PersistentScheduler over a
// SyncEveryAppend group-commit WAL, served by NewMultiServer on a loopback
// listener and driven through platform.Client.
type stack struct {
	in      inputs
	wal     *walFile
	money   *melody.Ledger
	sched   *melody.RunScheduler
	log     *eventlog.Log
	metrics *obs.Registry

	httpSrv   *http.Server
	serveErr  chan error
	transport *http.Transport
	net       *netCounter
	ops       *opCounter
	clients   []*platform.Client

	// ests decorates the tenants' estimators on traced reps only.
	ests *estimators
}

// trackerConfig is melody-platform's quality tracker built from its
// default config.
func trackerConfig(cfg platform.Config, metrics *obs.Registry) melody.QualityTrackerConfig {
	return melody.QualityTrackerConfig{
		InitialMean: cfg.InitMean,
		InitialVar:  cfg.InitVar,
		Params:      melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod:    cfg.EMPeriod,
		EMWindow:    60,
		Metrics:     metrics,
	}
}

// funding is the requester deposit: every run's full budget.
func funding(in inputs) float64 { return in.spec.budget * float64(in.totalRuns()) }

// newScheduler builds a scheduler and its funded ledger with the platform
// defaults. newEst overrides the estimator factory (traced reps).
func newScheduler(in inputs, metrics *obs.Registry, tracer *obs.Tracer,
	newEst func(string) (melody.Estimator, error)) (*melody.RunScheduler, *melody.Ledger, error) {
	cfg := platform.DefaultConfig()
	money := melody.NewLedger()
	if _, err := money.Deposit(melody.RequesterAccount, funding(in), "benchmark funding"); err != nil {
		return nil, nil, err
	}
	if newEst == nil {
		tc := trackerConfig(cfg, metrics)
		newEst = func(string) (melody.Estimator, error) { return melody.NewQualityTracker(tc) }
	}
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{
			QualityMin: cfg.QualityMin, QualityMax: cfg.QualityMax,
			CostMin: cfg.CostMin, CostMax: cfg.CostMax,
		},
		NewEstimator:     newEst,
		Ledger:           money,
		EpochEvery:       epochEvery,
		RegistryShards:   cfg.RegistryShards,
		CloseConcurrency: cfg.CloseConcurrency,
		Metrics:          metrics,
		Tracer:           tracer,
	})
	return sched, money, err
}

// boot assembles a stack over a fresh WAL. With tr non-nil the backend,
// the estimators and the HTTP hop are wrapped by the benchmark's tracing
// decorators; the program itself is unchanged.
func boot(in inputs, tr *tracer) (*stack, error) {
	cfg := platform.DefaultConfig()
	wal, err := newWALFile("bench")
	if err != nil {
		return nil, err
	}
	st := &stack{in: in, wal: wal, metrics: obs.NewRegistry(), net: &netCounter{}, ops: newOpCounter()}
	st.ops.tr = tr
	obs.RegisterBaseline(st.metrics)
	spans := obs.NewTracer(cfg.TraceCapacity)

	var newEst func(string) (melody.Estimator, error)
	if tr != nil {
		st.ests = newEstimators(trackerConfig(cfg, st.metrics))
		newEst = st.ests.build
	}
	st.sched, st.money, err = newScheduler(in, st.metrics, spans, newEst)
	if err != nil {
		st.close()
		return nil, err
	}
	ps, log, err := eventlog.OpenPersistentScheduler(wal.path, st.sched, eventlog.Options{
		SyncEveryAppend: true,
		Metrics:         st.metrics,
		Tracer:          spans,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.log = log
	var backend platform.MultiRunBackend = ps
	if tr != nil {
		backend = newTracedBackend(ps, tr, st.ests)
	}
	srv, err := platform.NewMultiServer(backend, obs.NewLogger(io.Discard, slog.LevelInfo),
		platform.WithDeadlines(cfg.BidDeadline.Std(), cfg.ScoreDeadline.Std()),
		platform.WithMetrics(st.metrics),
		platform.WithTracer(spans))
	if err != nil {
		st.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	var handler http.Handler = srv.Handler()
	if tr != nil {
		handler = spanMiddleware(handler)
	}
	st.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	st.serveErr = make(chan error, 1)
	go func() { st.serveErr <- st.httpSrv.Serve(ln) }()

	// The client transport is Go's default one, as a platform.Client with
	// no HTTPClient of its own gets; traced reps count its dials.
	st.transport = http.DefaultTransport.(*http.Transport).Clone()
	if tr != nil {
		st.transport.DialContext = st.net.dial
	}
	rt := &countingTransport{next: st.transport}
	for _, t := range in.tenants {
		c, err := platform.NewClientOptions("http://"+ln.Addr().String(), platform.ClientOptions{
			HTTPClient: &http.Client{Transport: rt, Timeout: 60 * time.Second},
			Tenant:     t.name,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// provision installs each tenant's policy and registers every worker over
// HTTP, one closed-loop client per tenant. It is the rest of set-up.
func (st *stack) provision(ctx context.Context) error {
	sp := st.in.spec
	return eachTenant(st.in, func(t int, ti tenantInput) error {
		c := st.clients[t]
		quota := sp.budget * float64(sp.runs)
		err := st.ops.do(ctx, "tenant_put", func(ctx context.Context) error {
			_, err := c.PutTenant(ctx, ti.name, platform.TenantPolicySpec{BudgetQuota: &quota, Weight: 1})
			return err
		})
		if err != nil {
			return fmt.Errorf("policy %s: %w", ti.name, err)
		}
		for _, w := range ti.workers {
			if err := st.ops.do(ctx, "register", func(ctx context.Context) error {
				return c.RegisterWorker(ctx, w)
			}); err != nil {
				return fmt.Errorf("register %s: %w", w, err)
			}
		}
		return nil
	})
}

// eachTenant runs fn for every tenant on its own goroutine and waits.
func eachTenant(in inputs, fn func(t int, ti tenantInput) error) error {
	errs := make([]error, len(in.tenants))
	var wg sync.WaitGroup
	for t, ti := range in.tenants {
		wg.Add(1)
		go func(t int, ti tenantInput) {
			defer wg.Done()
			errs[t] = fn(t, ti)
		}(t, ti)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// stopServing shuts the HTTP server and the WAL down, leaving the
// scheduler and the WAL file for the recovery checks.
func (st *stack) stopServing() error {
	var errs []error
	if st.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := st.httpSrv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
		if err := <-st.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
		st.httpSrv = nil
		st.transport.CloseIdleConnections()
	}
	if st.log != nil {
		if err := st.log.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close wal: %w", err))
		}
		st.log = nil
	}
	return errors.Join(errs...)
}

// close releases everything, including the WAL file.
func (st *stack) close() {
	_ = st.stopServing()
	if st.wal != nil {
		st.wal.Close()
	}
}
