package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// envRecord describes the machine and build a run measured on. The first
// five fields must match for two runs to be compared; the rest are the
// run's own noise record.
type envRecord struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	WALFS      string `json:"wal_fs"`

	Commit        string  `json:"commit"`
	StealS        float64 `json:"steal_s"`
	TimeWaitStart int     `json:"time_wait_start"`
}

// comparable reports why two runs' environments differ, or "".
func (e envRecord) comparable(o envRecord) string {
	var diffs []string
	if e.CPUModel != o.CPUModel {
		diffs = append(diffs, fmt.Sprintf("cpu_model %q vs %q", e.CPUModel, o.CPUModel))
	}
	if e.NProc != o.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", e.NProc, o.NProc))
	}
	if e.GOMAXPROCS != o.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d vs %d", e.GOMAXPROCS, o.GOMAXPROCS))
	}
	if e.GoVersion != o.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go_version %s vs %s", e.GoVersion, o.GoVersion))
	}
	if e.WALFS != o.WALFS {
		diffs = append(diffs, fmt.Sprintf("wal_fs %s vs %s", e.WALFS, o.WALFS))
	}
	return strings.Join(diffs, "; ")
}

// newEnvRecord reads the static part of the environment.
func newEnvRecord(walFS string) envRecord {
	return envRecord{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		WALFS:      walFS,
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit identifies the measured code by a hash of the Go sources and
// go.mod files under the working directory (the checkout root), so two
// versions of the code never share an identity, committed or not.
func commit() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// stealSeconds is the host's cumulative CPU steal from /proc/stat, or -1
// where it cannot be read.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// timeWaitSockets is the kernel's count of TCP sockets in TIME_WAIT, from
// /proc/net/sockstat, or -1 where it cannot be read.
func timeWaitSockets() int {
	b, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(fields); i += 2 {
			if fields[i] == "tw" {
				if n, err := strconv.Atoi(fields[i+1]); err == nil {
					return n
				}
			}
		}
	}
	return -1
}

// timeWaitCap is the kernel's limit on TIME_WAIT sockets
// (net.ipv4.tcp_max_tw_buckets), or -1 where it cannot be read.
func timeWaitCap() int {
	b, err := os.ReadFile("/proc/sys/net/ipv4/tcp_max_tw_buckets")
	if err != nil {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		return -1
	}
	return n
}

// fillTimeWait dials and closes loopback connections until the kernel's
// TIME_WAIT table is within 2% of its cap, and returns the count it left.
// Every single-bid request of the product client opens a connection, so
// `ingest` fills the table within seconds; filling it before each rep makes
// every measured rep start with the table full, whatever ran in the last
// minute. It does nothing where the table cannot be read.
func fillTimeWait() (int, error) {
	limit, n := timeWaitCap(), timeWaitSockets()
	target := limit - limit/50
	if limit <= 0 || n < 0 || n >= target {
		return n, nil
	}
	// Several listeners, so the client side does not run out of ephemeral
	// ports towards any one of them.
	var wg sync.WaitGroup
	var lns []net.Listener
	var addrs []string
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
		wg.Wait()
	}()
	for i := 0; i < 4; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return n, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				// Close only after the client's FIN, so the client side is
				// the one that enters TIME_WAIT.
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, _ = io.Copy(io.Discard, c)
					c.Close()
				}()
			}
		}()
	}
	for dials := 0; n < target && dials < 2*limit; {
		for k := 0; k < 2048; k, dials = k+1, dials+1 {
			c, err := net.Dial("tcp", addrs[dials%len(addrs)])
			if err != nil {
				return n, err
			}
			c.Close()
		}
		n = timeWaitSockets()
	}
	return n, nil
}

// cpuProbe times a fixed single-threaded CPU kernel, in ms. It runs between
// reps: a host that has become slower or faster shows here, apart from any
// change in the program.
func cpuProbe() float64 {
	buf := make([]byte, 1<<16)
	start := time.Now()
	h := sha256.New()
	for i := 0; i < 64; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
