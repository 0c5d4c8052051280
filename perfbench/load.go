package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator is one process: at most maxConns sending
// goroutines, each with its own keep-alive connection, over bodies
// encoded before the clock starts.

// maxConns is the number of sending goroutines and connections: two,
// or nproc when that is smaller.
func maxConns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// request is one pre-encoded HTTP request.
type request struct {
	Method string
	Path   string
	Body   []byte
	Op     int // index into the workload's op or instance list
}

// sample is one sent request. Times are offsets from the phase start.
type sample struct {
	Op     int
	Due    time.Duration // when the schedule wanted it sent
	Ready  time.Duration // max(Due, when a connection was free)
	Sent   time.Duration
	Done   time.Duration
	Status int
	Body   []byte
	Err    error
}

// latency is the request's time from its due time to its response.
func (s sample) latency() time.Duration { return s.Done - s.Due }

// lag is the generator's own delay: send time minus the later of the
// due time and the moment a connection became free. Waiting for a busy
// connection is server backlog, which latency (from the due time)
// already charges to the server.
func (s sample) lag() time.Duration { return s.Sent - s.Ready }

func (s sample) ok() bool { return s.Err == nil && s.Status == http.StatusOK }

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns(),
		MaxIdleConnsPerHost: maxConns(),
		DisableCompression:  true,
	}}
}

// do sends one request and reads the whole response.
func do(ctx context.Context, c *http.Client, base string, r request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// openLoop sends reqs at a fixed rate, request i due at i/rate, and
// times each from its due time. It stops early only when ctx ends.
func openLoop(ctx context.Context, c *http.Client, base string, reqs []request, rate float64) []sample {
	out := make([]sample, len(reqs))
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < maxConns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				due := time.Duration(i) * interval
				free := time.Since(start)
				waitUntil(start, due)
				s := sample{Op: reqs[i].Op, Due: due, Ready: max(due, free), Sent: time.Since(start)}
				s.Status, s.Body, s.Err = do(ctx, c, base, reqs[i])
				s.Done = time.Since(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return trimUnsent(out)
}

// spinWindow is how long before a due time the sender stops sleeping
// and yields in a loop instead: timer wake-ups overshoot by up to about
// a millisecond, which would otherwise show as generator lag.
const spinWindow = time.Millisecond

// waitUntil returns once start+due has passed.
func waitUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Since(start) < due {
		runtime.Gosched()
	}
}

// closedLoop sends requests back to back on every connection until d
// has passed or limit requests were sent; request i is reqs[i%len(reqs)]
// and is due when it is sent. A non-nil intern may replace each 200
// response body with an equal one already kept, so memory grows with
// the distinct answers rather than with the server's speed.
func closedLoop(ctx context.Context, c *http.Client, base string, reqs []request, d time.Duration, limit int, intern func([]byte) []byte) []sample {
	perConn := make([][]sample, maxConns())
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range perConn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				r := reqs[i%len(reqs)]
				now := time.Since(start)
				s := sample{Op: r.Op, Due: now, Ready: now, Sent: now}
				s.Status, s.Body, s.Err = do(ctx, c, base, r)
				s.Done = time.Since(start)
				if intern != nil && s.ok() {
					s.Body = intern(s.Body)
				}
				perConn[w] = append(perConn[w], s)
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, ss := range perConn {
		out = append(out, ss...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sent < out[j].Sent })
	return out
}

// trimUnsent drops the zero samples of requests never sent.
func trimUnsent(out []sample) []sample {
	kept := out[:0]
	for _, s := range out {
		if s.Done > 0 {
			kept = append(kept, s)
		}
	}
	return kept
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, or 0 for an empty slice. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(p/100*float64(len(xs))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

func median(xs []float64) float64 { return percentile(xs, 50) }
