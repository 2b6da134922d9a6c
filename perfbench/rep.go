package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"melody"
	"melody/internal/eventlog"
	"melody/internal/obs"
	"melody/internal/platform"
)

// repResult is one rep: a fresh stack set up, driven through a fixed
// number of runs, checked, and restarted from its WAL.
type repResult struct {
	traced    bool
	setupS    float64
	runsPerS  float64
	bidsPerS  float64
	cpuMS     float64 // process CPU per run
	sysMS     float64 // the system-time part of cpuMS
	heapMB    float64
	recoverS  []float64
	walPerRun float64
	runMS     []float64
	bidMS     []float64
	closeMS   []float64
	finishMS  []float64
	digest    string
	// exact holds the counts that do not depend on how the tenants
	// interleave; they must repeat exactly.
	exact  map[string]float64
	layers map[string]float64 // traced reps only
	shares map[string]float64 // traced reps only: share of client time
	spans  *tracer            // traced reps only
}

// snap is a point-in-time reading of every counter a rep differences.
type snap struct {
	walSize int64
	seq     int64
	mem     runtime.MemStats
	entries int
	epochs  int
	dials   int64
	bytes   int64
	commits int64
	commit  obs.HistogramSnapshot
	est     estCounts
}

func (st *stack) snapshot() (snap, error) {
	s := snap{seq: st.log.Seq(), entries: len(st.money.Entries()),
		epochs: st.sched.Settler().Epochs(), dials: st.net.dials.Load(), bytes: st.net.bytes.Load()}
	size, err := st.wal.size()
	if err != nil {
		return s, err
	}
	s.walSize = size
	runtime.ReadMemStats(&s.mem)
	s.commits = st.metrics.Counter(obs.MetricWALCommitsTotal, "").Value()
	s.commit = st.metrics.Histogram(obs.MetricWALFsyncSeconds, "", obs.TimeBuckets()).Snapshot()
	if st.ests != nil {
		s.est = st.ests.total()
	}
	return s, nil
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano()), nil
}

// restarts is how many times each rep reboots a scheduler from its WAL;
// recover_s is their median.
const restarts = 2

// runRep runs one rep and checks it against the serial reference.
func runRep(in inputs, ref map[string]string, traced bool, ops map[string]opTotals) (repResult, error) {
	r := repResult{traced: traced}
	var tr *tracer
	if traced {
		tr = newTracer()
		r.spans = tr
	}
	ctx := context.Background()
	start := time.Now()
	st, err := boot(in, tr)
	if err != nil {
		return r, fmt.Errorf("boot: %w", err)
	}
	defer st.close()
	defer st.ops.totals(ops)
	if err := st.provision(ctx); err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	r.setupS = time.Since(start).Seconds()

	before, err := st.snapshot()
	if err != nil {
		return r, err
	}
	user0, sys0, err := cpuTime()
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	var mark int64
	if tr != nil {
		mark = tr.ns(t0)
	}
	dr, err := st.drive(ctx)
	if err != nil {
		return r, err
	}
	wall := time.Since(t0).Seconds()
	user1, sys1, err := cpuTime()
	if err != nil {
		return r, err
	}
	after, err := st.snapshot()
	if err != nil {
		return r, err
	}
	runs := float64(in.totalRuns())
	r.runsPerS = runs / wall
	r.bidsPerS = float64(dr.bids) / wall
	r.cpuMS = float64((user1 - user0 + sys1 - sys0).Nanoseconds()) / 1e6 / runs
	r.sysMS = float64((sys1 - sys0).Nanoseconds()) / 1e6 / runs
	r.walPerRun = float64(after.walSize-before.walSize) / runs
	r.runMS = dr.runMS
	r.bidMS = st.ops.latencies(bidKind(in.spec))
	r.closeMS = st.ops.latencies("close")
	r.finishMS = st.ops.latencies("finish")
	r.digest = seasonDigest(dr.digests)
	r.exact = map[string]float64{"eventlog.records_per_run": float64(after.seq-before.seq) / runs}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heapMB = float64(mem.HeapAlloc) / 1e6

	if err := checkDigests(dr.digests, ref); err != nil {
		return r, err
	}
	if err := st.stopServing(); err != nil {
		return r, err
	}
	netOfCRC, err := walBytesNetOfCRC(st.wal.path, before.walSize)
	if err != nil {
		return r, err
	}
	r.exact["wal_bytes_per_run.net_of_crc"] = float64(netOfCRC) / runs
	var recovered *melody.RunScheduler
	for i := 0; i < restarts; i++ {
		sched, secs, err := restart(in, st.wal.path)
		if err != nil {
			return r, fmt.Errorf("restart: %w", err)
		}
		r.recoverS = append(r.recoverS, secs)
		recovered = sched
	}
	if err := checkRecovered(in, st.sched, recovered); err != nil {
		return r, err
	}
	if tr != nil {
		if err := r.traceLayers(st, tr, mark, before, after); err != nil {
			return r, err
		}
	}
	return r, checkBooks(st.sched)
}

// walBytesNetOfCRC is the size of the WAL from offset on, less every
// record's "crc" field. The CRC covers the record's sequence number, and
// which record gets which number depends on how the tenants interleave, so
// the decimal width of the CRCs — and with it the file size — varies by a
// few bytes between identical reps. The rest of each record does not.
func walBytesNetOfCRC(path string, offset int64) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, line := range bytes.SplitAfter(data[offset:], []byte("\n")) {
		n += int64(len(line))
		if i := bytes.LastIndex(line, []byte(`,"crc":`)); i >= 0 {
			n -= int64(len(bytes.TrimRight(line[i:], "}\n")))
		}
	}
	return n, nil
}

// bidKind is the operation bid latency is taken from.
func bidKind(sp spec) string {
	if sp.batch > 0 {
		return "bid_batch"
	}
	return "bid"
}

// restart reboots a scheduler from the WAL the way melody-platform does on
// start-up, and times it.
func restart(in inputs, path string) (*melody.RunScheduler, float64, error) {
	metrics := obs.NewRegistry()
	spans := obs.NewTracer(platform.DefaultConfig().TraceCapacity)
	start := time.Now()
	sched, _, err := newScheduler(in, metrics, spans, nil)
	if err != nil {
		return nil, 0, err
	}
	_, log, err := eventlog.OpenPersistentScheduler(path, sched, eventlog.Options{
		SyncEveryAppend: true, Metrics: metrics, Tracer: spans,
	})
	if err != nil {
		return nil, 0, err
	}
	secs := time.Since(start).Seconds()
	return sched, secs, log.Close()
}

// traceLayers derives the per-layer metrics of a traced rep from its spans
// and counter snapshots over the timed phase.
func (r *repResult) traceLayers(st *stack, tr *tracer, mark int64, before, after snap) (err error) {
	runs := float64(st.in.totalRuns())
	spans := tr.since(mark)
	sum := map[string]float64{}   // summed span time by name, µs
	count := map[string]float64{} // spans by name
	closes := map[uint64]bool{}
	var client, backend, calls float64
	for _, s := range spans {
		us := float64(s.dur()) / 1e3
		sum[s.Name] += us
		count[s.Name]++
		switch {
		case strings.HasPrefix(s.Name, "client."):
			client += us
			calls++
		case strings.HasPrefix(s.Name, "scheduler."):
			backend += us
		}
		if s.Name == "scheduler.close" {
			closes[s.ID] = true
		}
	}
	var closeEstimates, closeChildUS float64
	for _, s := range spans {
		if closes[s.Parent] {
			closeChildUS += float64(s.dur()) / 1e3
			if s.Name == "quality.estimate" {
				closeEstimates += float64(s.Calls)
			}
		}
	}
	mean := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return sum[name] / count[name]
	}
	records := float64(after.seq - before.seq)
	commits := float64(after.commits - before.commits)
	commitN := float64(after.commit.Count - before.commit.Count)
	est := after.est.sub(before.est)
	l := map[string]float64{
		"platform.reqs_per_run":    calls / runs,
		"platform.conns_per_req":   float64(after.dials-before.dials) / calls,
		"platform.bytes_per_req":   float64(after.bytes-before.bytes) / calls,
		"platform.self_us_per_req": (client - backend) / calls,
		"platform.quality_get_us":  mean("client.quality"),

		"eventlog.records_per_run":    records / runs,
		"eventlog.bytes_per_record":   float64(after.walSize-before.walSize) / records,
		"eventlog.commits_per_run":    commits / runs,
		"eventlog.records_per_commit": records / commits,
		"eventlog.commit_us":          (after.commit.Sum - before.commit.Sum) / commitN * 1e6,

		"scheduler.open_us":   mean("scheduler.open"),
		"scheduler.bid_us":    mean("scheduler.bid"),
		"scheduler.score_us":  mean("scheduler.score"),
		"scheduler.close_us":  mean("scheduler.close"),
		"scheduler.finish_us": mean("scheduler.finish"),

		"quality.observes_per_run":    float64(est.observe.calls) / runs,
		"quality.observe_us":          est.observe.meanNS() / 1e3,
		"quality.estimates_per_close": closeEstimates / count["scheduler.close"],
		"core.close_self_us":          (sum["scheduler.close"] - closeChildUS) / count["scheduler.close"],

		"ledger.entries_per_run": float64(after.entries-before.entries) / runs,
		"ledger.epochs_per_run":  float64(after.epochs-before.epochs) / runs,

		"runtime.alloc_bytes_per_run": float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / runs,
		"runtime.gc_per_run":          float64(after.mem.NumGC-before.mem.NumGC) / runs,
	}
	r.exact["quality.observes_per_run"] = l["quality.observes_per_run"]
	r.exact["quality.estimates_per_close"] = l["quality.estimates_per_close"]

	// The read side: ReadAll and replay into a fresh scheduler, alternated
	// and each taken as a median, and a serial re-append of the same
	// events into a fresh log.
	var events []eventlog.Event
	var reads, replays []float64
	for i := 0; i < restarts; i++ {
		start := time.Now()
		if events, err = eventlog.ReadAll(st.wal.path); err != nil {
			return err
		}
		reads = append(reads, time.Since(start).Seconds())
		sched, _, err := newScheduler(st.in, nil, nil, nil)
		if err != nil {
			return err
		}
		start = time.Now()
		if err := eventlog.ReplayScheduler(st.wal.path, sched); err != nil {
			return err
		}
		replays = append(replays, time.Since(start).Seconds())
	}
	l["eventlog.read_s"] = median(reads)
	l["eventlog.replay_apply_s"] = median(replays) - median(reads)
	appendUS, err := reappend(events)
	if err != nil {
		return err
	}
	l["eventlog.append_us"] = appendUS
	r.layers = l

	r.shares = map[string]float64{"platform.self": (client - backend) / client}
	for _, op := range []string{"open", "bid", "quality", "score", "close", "finish"} {
		r.shares["scheduler."+op] = sum["scheduler."+op] / client
	}
	return nil
}

// reappend appends events one at a time into a fresh durable log and
// returns the mean µs per Append.
func reappend(events []eventlog.Event) (float64, error) {
	wal, err := newWALFile("reappend")
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	log, err := eventlog.OpenOptions(wal.path, eventlog.Options{SyncEveryAppend: true})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, e := range events {
		if _, err := log.Append(e); err != nil {
			log.Close()
			return 0, err
		}
	}
	us := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(events))
	return us, log.Close()
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
