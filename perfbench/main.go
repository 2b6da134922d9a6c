// Command melody-perfbench is the repository's product-path benchmark. It
// runs one workload against the real multi-tenant stack in process —
// platform.Client over loopback HTTP into NewMultiServer, a
// PersistentScheduler over a SyncEveryAppend WAL, and the RunScheduler —
// checks the outputs, and prints every metric with its unit. See README.md.
//
//	melody-perfbench --workload ingest --seed 1 --seconds 20 --trace 0
//	melody-perfbench compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	os.Exit(bench(os.Args[1:]))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything a run reports; it is printed and kept under
// .bench_build/results for compare.
type record struct {
	Workload string              `json:"workload"`
	Seed     uint64              `json:"seed"`
	Trace    bool                `json:"trace"`
	Reps     int                 `json:"reps"`
	Env      envRecord           `json:"env"`
	Digest   string              `json:"digest"`
	Exact    map[string]float64  `json:"exact"`
	Samples  map[string]int      `json:"samples"`
	Ops      map[string]opTotals `json:"ops"`
	Shares   map[string]float64  `json:"shares,omitempty"`
	Errors   []string            `json:"errors,omitempty"`
	Noise    []repNoise          `json:"noise"`
	Metrics  map[string]metric   `json:"metrics"`
}

// repNoise is one rep's noise record. It is kept per rep so that a shift
// between two runs can be traced to the kernel or the host.
type repNoise struct {
	Traced bool `json:"traced"`
	// TimeWaitStart is the TIME_WAIT socket count after fillTimeWait.
	TimeWaitStart int     `json:"time_wait_start"`
	StealS        float64 `json:"steal_s"`
	CPUMSPerRun   float64 `json:"cpu_ms_per_run"`
	SysMSPerRun   float64 `json:"sys_ms_per_run"`
	// ProbeMS is the time of a fixed CPU kernel run just before the rep.
	ProbeMS float64 `json:"probe_ms"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(args []string) int {
	fl := flag.NewFlagSet("melody-perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run: ingest or season")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 20, "measure for this long; every rep runs to completion")
	trace := fl.Int("trace", 0, "1 runs alternate untraced and traced reps and reports the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*workload]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "melody-perfbench: unknown workload %q or trace %d\n", *workload, *trace)
		return 2
	}
	rec, ok := measure(sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	out := result{Correct: ok, Metrics: rec.Metrics}
	for _, o := range rec.Ops {
		out.Attempted += o.Attempted
		out.Failed += o.Failed
	}
	path := filepath.Join(".bench_build", "results",
		fmt.Sprintf("%s-seed%d-trace%d-%d.json", sp.name, *seed, *trace, time.Now().UnixNano()))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintf(os.Stderr, "melody-perfbench: %v\n", err)
	}
	printLine(map[string]any{"env": rec.Env, "reps": rec.Reps, "digest": rec.Digest, "exact": rec.Exact, "record": path})
	printLine(map[string]any{"ops": rec.Ops, "samples": rec.Samples})
	if rec.Shares != nil {
		printLine(map[string]any{"shares_of_client_time": rec.Shares})
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(os.Stderr, "melody-perfbench: check failed: %s\n", e)
	}
	printLine(out)
	if !ok {
		return 1
	}
	return 0
}

// measure runs reps until the time is up (at least minReps) and
// aggregates them. It reports false if any correctness check failed.
func measure(sp spec, seed uint64, d time.Duration, traced bool) (record, bool) {
	in := generate(sp, seed)
	rec := record{Workload: sp.name, Seed: seed, Trace: traced, Ops: map[string]opTotals{}, Metrics: map[string]metric{}}
	fail := func(err error) (record, bool) {
		rec.Errors = append(rec.Errors, err.Error())
		return rec, false
	}
	walProbe, err := newWALFile("probe")
	if err != nil {
		return fail(err)
	}
	rec.Env = newEnvRecord(walProbe.fs)
	walProbe.Close()
	rec.Env.TimeWaitStart = timeWaitSockets()
	stealStart := stealSeconds()

	ref, err := reference(in)
	if err != nil {
		return fail(fmt.Errorf("serial reference: %w", err))
	}
	rec.Digest = seasonDigest(ref)
	other, err := reference(generate(sp, seed+1))
	if err != nil {
		return fail(fmt.Errorf("serial reference, seed %d: %w", seed+1, err))
	}
	if seasonDigest(other) == rec.Digest {
		return fail(fmt.Errorf("seeds %d and %d give identical outcome digests", seed, seed+1))
	}

	// Rep 0 warms up (heap growth, connection pools, page faults) and is
	// checked like every rep, but does not enter the metrics.
	minReps := 3
	if traced {
		minReps = 4
	}
	var reps []repResult
	start := time.Now()
	for i := 0; i <= minReps || time.Since(start) < d; i++ {
		tw, err := fillTimeWait()
		if err != nil {
			return fail(fmt.Errorf("fill TIME_WAIT before rep %d: %w", i, err))
		}
		probe := cpuProbe()
		stealRep := stealSeconds()
		r, err := runRep(in, ref, traced && i > 0 && i%2 == 0, rec.Ops)
		if err != nil {
			return fail(fmt.Errorf("rep %d: %w", i, err))
		}
		n := repNoise{Traced: r.traced, TimeWaitStart: tw, StealS: stealSeconds() - stealRep,
			CPUMSPerRun: r.cpuMS, SysMSPerRun: r.sysMS, ProbeMS: probe}
		fmt.Fprintf(os.Stderr, "rep %d traced=%t setup_s=%.4f runs_per_s=%.2f cpu_ms_per_run=%.2f sys_ms_per_run=%.2f recover_s=%.4f steal_s=%.2f time_wait=%d probe_ms=%.3f\n",
			i, r.traced, r.setupS, r.runsPerS, r.cpuMS, r.sysMS, median(r.recoverS), n.StealS, tw, probe)
		rec.Noise = append(rec.Noise, n)
		reps = append(reps, r)
	}
	rec.Reps = len(reps)
	if steal := stealSeconds(); steal >= 0 && stealStart >= 0 {
		rec.Env.StealS = steal - stealStart
	} else {
		rec.Env.StealS = -1
	}

	// Exactness: same seed, same digests and interleaving-independent
	// counts in every rep.
	rec.Exact = map[string]float64{}
	for i, r := range reps {
		if r.digest != rec.Digest {
			return fail(fmt.Errorf("rep %d digest %s differs from the reference %s", i, r.digest, rec.Digest))
		}
		for k, v := range r.exact {
			if want, ok := rec.Exact[k]; ok && v != want {
				return fail(fmt.Errorf("rep %d: %s = %v, an earlier rep has %v; it must repeat exactly", i, k, v, want))
			}
			rec.Exact[k] = v
		}
	}

	var plain, tracedReps []repResult
	for _, r := range reps[1:] {
		if r.traced {
			tracedReps = append(tracedReps, r)
		} else {
			plain = append(plain, r)
		}
	}
	rec.Samples = map[string]int{}
	if traced {
		last := tracedReps[len(tracedReps)-1].spans
		if err := last.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))); err != nil {
			return fail(fmt.Errorf("write spans: %w", err))
		}
		rec.Metrics = layerMetrics(tracedReps, plain, rec.Env)
		rec.Shares = map[string]float64{}
		for k := range tracedReps[0].shares {
			rec.Shares[k] = medianOf(tracedReps, func(r repResult) float64 { return r.shares[k] })
		}
		return rec, true
	}
	pool := func(f func(r repResult) []float64) []float64 {
		var all []float64
		for _, r := range plain {
			all = append(all, f(r)...)
		}
		return all
	}
	runMS := pool(func(r repResult) []float64 { return r.runMS })
	bidMS := pool(func(r repResult) []float64 { return r.bidMS })
	closeMS := pool(func(r repResult) []float64 { return r.closeMS })
	finishMS := pool(func(r repResult) []float64 { return r.finishMS })
	recoverS := pool(func(r repResult) []float64 { return r.recoverS })
	rec.Samples = map[string]int{"reps": len(plain), "run": len(runMS), "bid": len(bidMS),
		"close": len(closeMS), "finish": len(finishMS), "recover": len(recoverS)}
	set := func(name, unit string, v float64) { rec.Metrics[name] = metric{v, unit} }
	set("setup_s", "s", medianOf(plain, func(r repResult) float64 { return r.setupS }))
	set("runs_per_s", "runs/s", medianOf(plain, func(r repResult) float64 { return r.runsPerS }))
	set("bids_per_s", "bids/s", medianOf(plain, func(r repResult) float64 { return r.bidsPerS }))
	set("run_p50_ms", "ms", median(runMS))
	set("bid_p50_ms", "ms", median(bidMS))
	set("bid_p90_ms", "ms", quantile(bidMS, 0.9))
	set("close_p50_ms", "ms", median(closeMS))
	set("finish_p50_ms", "ms", median(finishMS))
	set("cpu_ms_per_run", "ms", medianOf(plain, func(r repResult) float64 { return r.cpuMS }))
	set("recover_s", "s", median(recoverS))
	set("wal_bytes_per_run", "B", medianOf(plain, func(r repResult) float64 { return r.walPerRun }))
	set("heap_mb", "MB", medianOf(plain, func(r repResult) float64 { return r.heapMB }))
	return rec, true
}

// layerUnits gives each per-layer metric its unit.
var layerUnits = map[string]string{
	"platform.reqs_per_run": "count", "platform.conns_per_req": "count", "platform.bytes_per_req": "B",
	"platform.self_us_per_req": "us", "platform.quality_get_us": "us",
	"eventlog.records_per_run": "count", "eventlog.bytes_per_record": "B", "eventlog.commits_per_run": "count",
	"eventlog.records_per_commit": "count", "eventlog.commit_us": "us", "eventlog.append_us": "us",
	"eventlog.read_s": "s", "eventlog.replay_apply_s": "s",
	"scheduler.open_us": "us", "scheduler.bid_us": "us", "scheduler.score_us": "us",
	"scheduler.close_us": "us", "scheduler.finish_us": "us",
	"quality.observes_per_run": "count", "quality.observe_us": "us", "quality.estimates_per_close": "count",
	"core.close_self_us":     "us",
	"ledger.entries_per_run": "count", "ledger.epochs_per_run": "count",
	"runtime.alloc_bytes_per_run": "B", "runtime.gc_per_run": "count",
}

// layerMetrics is the traced run's report: the median of each per-layer
// metric over the traced reps, tracing overhead against the untraced reps
// of the same run, and the environment record.
func layerMetrics(traced, plain []repResult, env envRecord) map[string]metric {
	m := map[string]metric{}
	for name, unit := range layerUnits {
		m[name] = metric{medianOf(traced, func(r repResult) float64 { return r.layers[name] }), unit}
	}
	on := medianOf(traced, func(r repResult) float64 { return r.runsPerS })
	off := medianOf(plain, func(r repResult) float64 { return r.runsPerS })
	m["trace.runs_per_s_traced"] = metric{on, "runs/s"}
	m["trace.runs_per_s_untraced"] = metric{off, "runs/s"}
	m["trace.overhead_pct"] = metric{100 * (off - on) / off, "%"}
	m["env.steal_s"] = metric{env.StealS, "s"}
	m["env.time_wait_start"] = metric{float64(env.TimeWaitStart), "count"}
	m["env.gomaxprocs"] = metric{float64(env.GOMAXPROCS), "count"}
	return m
}

func medianOf(reps []repResult, f func(repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func printLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "melody-perfbench: encode: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// compare prints two run records side by side. It refuses (exit 2) to
// compare runs whose environments differ, and fails (exit 1) the
// exactness test: the same workload and seed must repeat the digest and
// the interleaving-independent counts, and different seeds must change
// the digest.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: melody-perfbench compare A.json B.json")
		return 2
	}
	var a, b record
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, []*record{&a, &b}[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "melody-perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	if why := a.Env.comparable(b.Env); why != "" {
		fmt.Fprintf(os.Stderr, "melody-perfbench: refusing to compare runs from different environments: %s\n", why)
		return 2
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintln(os.Stderr, "melody-perfbench: records are of different workloads or modes")
		return 2
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %14s %14s %8s\n", "metric", a.Env.Commit, b.Env.Commit, "b/a")
	for _, k := range names {
		x, y := a.Metrics[k], b.Metrics[k]
		fmt.Printf("%-30s %14.6g %14.6g %8.4f %s\n", k, x.Value, y.Value, y.Value/x.Value, x.Unit)
	}
	var err error
	switch {
	case a.Seed == b.Seed && a.Digest != b.Digest:
		err = fmt.Errorf("seed %d: digests %s and %s differ", a.Seed, a.Digest, b.Digest)
	case a.Seed == b.Seed && !reflect.DeepEqual(a.Exact, b.Exact):
		err = fmt.Errorf("seed %d: exact counts differ: %v vs %v", a.Seed, a.Exact, b.Exact)
	case a.Seed != b.Seed && a.Digest == b.Digest:
		err = fmt.Errorf("seeds %d and %d give the same digest %s", a.Seed, b.Seed, a.Digest)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "melody-perfbench: exactness: %v\n", err)
		return 1
	}
	fmt.Println("exactness: ok")
	return 0
}
