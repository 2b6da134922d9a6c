package main

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opStats counts one kind of client operation.
type opStats struct {
	calls    atomic.Int64 // logical client calls
	failed   atomic.Int64 // calls that returned an error
	attempts atomic.Int64 // HTTP round trips, retries included

	mu  sync.Mutex
	lat []float64 // call latency, ms
}

// opCounter tracks every client operation by kind: calls, failures,
// retried attempts and latencies. On traced reps each call is also a
// client span whose ID travels to the server in spanHeader.
type opCounter struct {
	tr    *tracer
	mu    sync.Mutex
	kinds map[string]*opStats
}

func newOpCounter() *opCounter { return &opCounter{kinds: make(map[string]*opStats)} }

func (c *opCounter) kind(k string) *opStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.kinds[k]
	if !ok {
		s = &opStats{}
		c.kinds[k] = s
	}
	return s
}

type kindKey struct{}

// do runs one client call of the given kind, timing it.
func (c *opCounter) do(ctx context.Context, kind string, fn func(context.Context) error) error {
	s := c.kind(kind)
	ctx = context.WithValue(ctx, kindKey{}, s)
	var id uint64
	if c.tr != nil {
		id = c.tr.newID()
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	start := time.Now()
	err := fn(ctx)
	end := time.Now()
	s.calls.Add(1)
	if err != nil {
		s.failed.Add(1)
	}
	s.mu.Lock()
	s.lat = append(s.lat, float64(end.Sub(start).Nanoseconds())/1e6)
	s.mu.Unlock()
	if c.tr != nil {
		c.tr.add(span{ID: id, Trace: id, Name: "client." + kind, Start: c.tr.ns(start), End: c.tr.ns(end)})
	}
	return err
}

// latencies returns a kind's latency samples, ms.
func (c *opCounter) latencies(kind string) []float64 {
	s := c.kind(kind)
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.lat...)
}

// opTotals is the per-kind record printed for every run.
type opTotals struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Retried   int64 `json:"retried"`
}

// totals adds this counter's numbers into acc.
func (c *opCounter) totals(acc map[string]opTotals) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, s := range c.kinds {
		t := acc[k]
		t.Attempted += s.calls.Load()
		t.Failed += s.failed.Load()
		if r := s.attempts.Load() - s.calls.Load(); r > 0 {
			t.Retried += r
		}
		acc[k] = t
	}
}

// spanHeader carries a client span's ID to the server on traced reps.
const spanHeader = "X-Perfbench-Span"

// countingTransport counts HTTP attempts per operation kind and, on
// traced reps, tags each request with its client span.
type countingTransport struct {
	next http.RoundTripper
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if s, ok := req.Context().Value(kindKey{}).(*opStats); ok {
		s.attempts.Add(1)
	}
	if id, ok := req.Context().Value(spanKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return t.next.RoundTrip(req)
}

// netCounter is the client transport's dialer on traced reps: it counts
// connections dialed and bytes moved over them.
type netCounter struct {
	dialer net.Dialer
	dials  atomic.Int64
	bytes  atomic.Int64
}

func (n *netCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := n.dialer.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n.dials.Add(1)
	return &countedConn{Conn: c, n: n}, nil
}

type countedConn struct {
	net.Conn
	n *netCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.bytes.Add(int64(k))
	return k, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.bytes.Add(int64(k))
	return k, err
}
