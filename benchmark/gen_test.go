package main

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/vec"
)

// lateClock wakes every sleeper exactly late after the time it asked for.
type lateClock struct {
	t, late time.Duration
	wakes   int
}

func (c *lateClock) now() time.Duration { return c.t }

func (c *lateClock) sleepUntil(t time.Duration) {
	c.wakes++
	if t+c.late > c.t {
		c.t = t + c.late
	}
}

func TestPaceSendsEveryDueArrivalAtEachWakeUp(t *testing.T) {
	ms := time.Millisecond
	sched := []time.Duration{0, 400 * time.Microsecond, 800 * time.Microsecond, 1200 * time.Microsecond, 1600 * time.Microsecond, 2 * ms}
	clk := &lateClock{late: ms}
	var order []int
	var lags []time.Duration
	pace(clk, sched, func(i int, lag time.Duration) {
		order = append(order, i)
		lags = append(lags, lag)
	})
	// Wake at 1.0 ms: arrivals 0, 0.4, 0.8 are due. Wake at 2.2 ms: the
	// other three.
	want := []time.Duration{ms, 600 * time.Microsecond, 200 * time.Microsecond, ms, 600 * time.Microsecond, 200 * time.Microsecond}
	if clk.wakes != 2 {
		t.Fatalf("pacer woke %d times, want 2", clk.wakes)
	}
	for i := range want {
		if order[i] != i || lags[i] != want[i] {
			t.Fatalf("arrival %d: got index %d lag %v, want index %d lag %v", i, order[i], lags[i], i, want[i])
		}
	}
	var l latencies
	for _, d := range lags {
		l.add(d)
	}
	s := l.summarize()
	if s.P50 != float64(600*time.Microsecond) || s.P99 != float64(ms) {
		t.Fatalf("lag p50 %v p99 %v, want 600µs and 1ms", s.P50, s.P99)
	}
}

func TestPaceOnTimeClockHasNoLag(t *testing.T) {
	sched := poissonSchedule(rand.New(rand.NewSource(1)), 1000, time.Second)
	clk := &lateClock{}
	n := 0
	pace(clk, sched, func(i int, lag time.Duration) {
		if lag != 0 {
			t.Fatalf("arrival %d released %v late by an exact clock", i, lag)
		}
		n++
	})
	if n != len(sched) {
		t.Fatalf("released %d of %d arrivals", n, len(sched))
	}
}

func TestPoissonSchedule(t *testing.T) {
	sched := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	// 10 000 expected arrivals; the count is Poisson, so ±4σ = ±400.
	if n := len(sched); n < 9600 || n > 10400 {
		t.Fatalf("%d arrivals for 1000/s over 10s", n)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] || sched[i] >= 10*time.Second {
			t.Fatalf("schedule not ascending within the phase at %d", i)
		}
	}
	again := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	if len(again) != len(sched) || again[len(again)-1] != sched[len(sched)-1] {
		t.Fatal("same seed gave a different schedule")
	}
}

func TestOpenLoopRunsEachArrivalOnceOnItsConnection(t *testing.T) {
	sched := make([]time.Duration, 200)
	for i := range sched {
		sched[i] = time.Duration(i) * 20 * time.Microsecond
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	lags := openLoop(3, 2, sched, func(c, i int, intended time.Time) {
		mu.Lock()
		defer mu.Unlock()
		if c != i%3 {
			t.Errorf("arrival %d ran on connection %d", i, c)
		}
		seen[i]++
	})
	if len(lags) != len(sched) || len(seen) != len(sched) {
		t.Fatalf("%d lags, %d arrivals run, want %d", len(lags), len(seen), len(sched))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("arrival %d ran %d times", i, n)
		}
	}
}

func TestPercentileKnownAnswers(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l = append(l, float64(i))
	}
	s := l.summarize()
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.Beyond99 != 10 || s.Mean != 500.5 {
		t.Fatalf("summary of 1..1000: %+v", s)
	}
	if p := percentile([]float64{7}, 0.99); p != 7 {
		t.Fatalf("p99 of one sample = %v", p)
	}
	if p := percentile([]float64{1, 2, 3, 4}, 0.5); p != 2 {
		t.Fatalf("p50 of 1..4 = %v, want the nearest rank 2", p)
	}
}

func TestFailedRequestsLandBeyondEveryLimit(t *testing.T) {
	var l latencies
	for i := 0; i < 98; i++ {
		l.add(time.Millisecond)
	}
	l.fail()
	l.fail()
	s := l.summarize()
	if !math.IsInf(s.P99, 1) || ms(s.P99) != failedMs {
		t.Fatalf("2%% failures: p99 = %v, want +Inf (reported as %v ms)", s.P99, failedMs)
	}
	if s.P50 != float64(time.Millisecond) {
		t.Fatalf("p50 = %v", s.P50)
	}
}

func TestSeedFramesStayWithinTheWireLimits(t *testing.T) {
	// potluck-loadgen -keys 4096 packs these puts into one 25 MB frame.
	key := make(vec.Vector, 768)
	subs := make([]service.PutSub, 4096)
	for i := range subs {
		subs[i] = service.PutSub{Function: "hot", Keys: map[string]vec.Vector{"downsamp": key}, Value: encodeValue(i, 64), Cost: 1}
	}
	if got, want := putSubWireSize(subs[0]), len(service.EncodePutSubs(subs[:1]))-4; got != want {
		t.Fatalf("putSubWireSize = %d, encoder writes %d", got, want)
	}
	frames := seedFrames(subs)
	if len(frames) < 2 {
		t.Fatalf("%d frame(s) for a 25 MB seed", len(frames))
	}
	total := 0
	for _, f := range frames {
		total += len(f)
		payload := service.EncodeRequest(&service.Request{Type: service.MsgMultiPut, App: "app-0", Value: service.EncodePutSubs(f)})
		if len(payload) > service.MaxMessageSize || len(f) > service.MaxBatch {
			t.Fatalf("frame of %d subs is %d bytes", len(f), len(payload))
		}
	}
	if total != len(subs) {
		t.Fatalf("frames carry %d of %d puts", total, len(subs))
	}
	// Small puts are bounded by the sub-operation limit instead.
	small := make([]service.PutSub, service.MaxBatch+1)
	if f := seedFrames(small); len(f) != 2 || len(f[0]) != service.MaxBatch {
		t.Fatalf("MaxBatch+1 small puts split as %d frames", len(f))
	}
}
