package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestBisectIsMonotoneAndNeverOvershoots(t *testing.T) {
	const lo, hi, steps = 250.0, 16000.0, 8
	prev := 0.0
	for _, threshold := range []float64{100, 300, 900, 2000, 2001, 5000, 15999, 20000} {
		probes := 0
		got := bisect(lo, hi, steps, func(rate float64) bool {
			probes++
			return rate <= threshold
		})
		if probes != steps {
			t.Errorf("threshold %v: %d probes, want %d", threshold, probes, steps)
		}
		if got > threshold {
			t.Errorf("threshold %v: bisect returned a failing rate %v", threshold, got)
		}
		if got < prev {
			t.Errorf("threshold %v: result %v below the result %v for a lower threshold", threshold, got, prev)
		}
		prev = got
		// Inside the bracket the answer is within one final step of the
		// threshold: the bracket ratio shrinks to (hi/lo)^(1/2^steps).
		if threshold > lo*1.1 && threshold < hi {
			step := math.Pow(hi/lo, 1/math.Pow(2, steps))
			if got*step < threshold {
				t.Errorf("threshold %v: result %v is more than one step (x%.3f) below", threshold, got, step)
			}
		}
	}
}

// TestOpenLoopQueuesBehindSlowServer overloads one connection: arrivals
// every 10 ms, a 20 ms handler. The queue grows, queueing counts in the
// latency from the due instant, and arrivals still queued after the
// window and its grace are never sent.
func TestOpenLoopQueuesBehindSlowServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	const n = 60
	var q []arrival
	for i := 0; i < n; i++ {
		q = append(q, arrival{at: time.Duration(i) * 10 * time.Millisecond, url: srv.URL})
	}
	window := 600 * time.Millisecond
	samples := openLoop(context.Background(), [][]arrival{q}, time.Now(), window)
	ls := summarizeLoad(samples)

	if ls.sent+ls.queued != n {
		t.Fatalf("sent %d + queued %d != %d arrivals", ls.sent, ls.queued, n)
	}
	// About (600+250)/20 requests fit; the rest stay queued.
	if ls.queued < 10 || ls.sent < 20 {
		t.Errorf("sent %d, queued %d: want the overload to leave at least 10 queued", ls.sent, ls.queued)
	}
	if ls.backlogMax < 10 {
		t.Errorf("backlog peaked at %d, want a growing queue", ls.backlogMax)
	}
	var last sample
	for _, s := range samples[0] {
		if s.sent {
			if !s.ok() || s.sum == ([32]byte{}) {
				t.Fatalf("request due at %v failed: status %d err %v", s.at, s.status, s.err)
			}
			last = s
		}
	}
	if !samples[0][0].idle || samples[0][1].idle {
		t.Error("want the first request sent by an idle connection and the second queued behind it")
	}
	if queueing := last.start - last.at; queueing < 100*time.Millisecond || last.latency() < queueing {
		t.Errorf("last sent request queued %v with latency %v: want queueing counted in latency", queueing, last.latency())
	}
	for _, s := range samples[0] {
		if s.sent && s.start >= window+drainGrace+10*time.Millisecond {
			t.Errorf("request due at %v sent at %v, after the window and grace", s.at, s.start)
		}
	}
}

// TestOpenLoopKeepsUpWithFastServer checks that an idle connection sends
// each request at its due instant: nothing queues, and lateness stays
// within a coarse timer's resolution.
func TestOpenLoopKeepsUpWithFastServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	var queues [][]arrival
	for c := 0; c < 2; c++ {
		var q []arrival
		for i := 0; i < 20; i++ {
			q = append(q, arrival{at: time.Duration(i) * 10 * time.Millisecond, url: srv.URL})
		}
		queues = append(queues, q)
	}
	samples := openLoop(context.Background(), queues, time.Now(), 200*time.Millisecond)
	ls := summarizeLoad(samples)
	if ls.sent != 40 || ls.queued != 0 {
		t.Errorf("sent %d queued %d, want 40 and 0", ls.sent, ls.queued)
	}
	if ls.lateP50 > 5*time.Millisecond {
		t.Errorf("median lateness %v", ls.lateP50)
	}
	for _, q := range samples {
		for _, s := range q {
			if !s.ok() {
				t.Fatalf("request failed: %d %v", s.status, s.err)
			}
			if s.idle && s.latency() != s.end-s.start {
				t.Errorf("idle connection: latency %v, want the service time %v", s.latency(), s.end-s.start)
			}
			if s.latency() < s.end-s.start {
				t.Errorf("latency %v below the service time %v", s.latency(), s.end-s.start)
			}
		}
	}
}
