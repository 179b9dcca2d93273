package main

import (
	"context"
	"crypto/sha256"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The open-loop generator. Arrivals follow a fixed schedule whatever the
// server does, so a slow server faces a growing queue instead of a
// politely slowed client. Each connection owns a FIFO of arrivals: a
// request is sent when it is due or, if the connection is still busy,
// as soon as the connection frees up, and its latency is timed from the
// instant it was due, so queueing behind a stall counts. The one delay
// not counted is the generator's own lateness — how far past the due
// instant an idle connection's sleep overshot — which is reported
// separately: on hosts whose timers wake on a 1 ms grid it would
// otherwise dominate a sub-millisecond latency. Every request keeps its
// exact sample; nothing is bucketed or dropped. Arrivals still queued
// drainGrace after the window closes are never sent and count as
// failures: the grace lets a backlog from a brief stall near the end
// drain, while an overloaded server's growing backlog cannot.

// arrival is one scheduled request.
type arrival struct {
	at  time.Duration // when it is due, from the start of the run
	url string
	key int // index into the workload's key set
}

// sample is one arrival's outcome. Times are offsets from the start of
// the run; a never-sent arrival has sent == false.
type sample struct {
	arrival
	sent       bool
	start, end time.Duration
	idle       bool // the connection was free when the arrival came due
	status     int
	err        error
	sum        [sha256.Size]byte // SHA-256 of the response body
}

func (s sample) ok() bool { return s.sent && s.err == nil && s.status == http.StatusOK }

// late is how far past its due instant an idle connection sent the
// request: the generator's error, not the server's.
func (s sample) late() time.Duration {
	if s.idle {
		return s.start - s.at
	}
	return 0
}

// latency is the time from when the request was due until its response
// was read, less the generator's lateness.
func (s sample) latency() time.Duration { return s.end - s.at - s.late() }

// drainGrace is how long past the window a queued arrival may still be
// sent.
const drainGrace = 250 * time.Millisecond

// requestTimeout bounds one request; one that runs out is a failure.
const requestTimeout = 5 * time.Second

// openLoop runs one FIFO per connection, with arrival times counted from
// t0, until window (plus drainGrace) has passed and every sent request
// has finished. Each connection is its own HTTP client holding a single
// TCP connection per target.
func openLoop(ctx context.Context, queues [][]arrival, t0 time.Time, window time.Duration) [][]sample {
	out := make([][]sample, len(queues))
	var wg sync.WaitGroup
	for c, q := range queues {
		wg.Add(1)
		go func(c int, q []arrival) {
			defer wg.Done()
			client := &http.Client{
				Timeout:   requestTimeout,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			}
			defer client.CloseIdleConnections()
			out[c] = serveQueue(ctx, client, q, t0, window)
		}(c, q)
	}
	wg.Wait()
	return out
}

// serveQueue drains one connection's FIFO.
func serveQueue(ctx context.Context, client *http.Client, q []arrival, t0 time.Time, window time.Duration) []sample {
	samples := make([]sample, len(q))
	var free time.Duration // when the connection finished its last request
	for i, a := range q {
		samples[i].arrival = a
		if time.Since(t0) >= window+drainGrace || ctx.Err() != nil {
			continue // still queued when the window closed: never sent
		}
		samples[i].idle = free <= a.at
		if d := a.at - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		samples[i].start = time.Since(t0)
		samples[i].sent = true
		samples[i].status, samples[i].sum, samples[i].err = get(ctx, client, a.url)
		samples[i].end = time.Since(t0)
		free = samples[i].end
	}
	return samples
}

// get performs one GET and hashes the body it read in full.
func get(ctx context.Context, client *http.Client, url string) (int, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, sum, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, sum, err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return resp.StatusCode, sum, err
	}
	copy(sum[:], h.Sum(nil))
	return resp.StatusCode, sum, nil
}

// loadStats checks the generator itself, not the program: how late it
// sent requests whose connection was idle, the deepest client-side
// backlog, and how many arrivals it sent and left queued.
type loadStats struct {
	lateP50, lateMax time.Duration
	backlogMax       int
	sent, queued     int
}

func summarizeLoad(all [][]sample) loadStats {
	var st loadStats
	var late []float64
	type event struct {
		t time.Duration
		d int
	}
	var events []event
	for _, q := range all {
		for _, s := range q {
			switch {
			case !s.sent:
				st.queued++
				events = append(events, event{s.at, +1})
			case s.idle:
				// Sent by an idle connection: never queued, only late.
				st.sent++
				late = append(late, float64(s.late()))
			default:
				st.sent++
				events = append(events, event{s.at, +1}, event{s.start, -1})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].d < events[j].d // a start at the due instant never counts as queued
	})
	depth := 0
	for _, ev := range events {
		depth += ev.d
		st.backlogMax = max(st.backlogMax, depth)
	}
	if len(late) > 0 {
		st.lateP50 = time.Duration(median(late))
		st.lateMax = time.Duration(percentile(late, 1))
	}
	return st
}

// bisect returns the highest rate in [lo, hi] that pass accepts, found
// by steps geometric halvings of the bracket, assuming pass accepts every
// rate below some threshold and none above it. It returns 0 when no
// probed rate passes.
func bisect(lo, hi float64, steps int, pass func(rate float64) bool) float64 {
	best := 0.0
	for i := 0; i < steps; i++ {
		mid := math.Sqrt(lo * hi)
		if pass(mid) {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	return best
}
