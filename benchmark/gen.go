package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the intended send offsets of an open-loop
// phase: independent applications issue requests as a Poisson process
// of the given rate, so inter-arrival gaps are exponential.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// pacerClock is the time source of the pacer; tests substitute a fake
// clock with known wake-up lateness.
type pacerClock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type realClock struct{ base time.Time }

func (c realClock) now() time.Duration { return time.Since(c.base) }

func (c realClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// pace walks an open-loop schedule. At each wake-up it hands off every
// arrival whose intended time has passed, in order, then sleeps until
// the next one is due. handoff receives the arrival's index and its
// lag: how late the generator released it. The lag is the generator's
// own error; it does not depend on the program, so it is the floor
// under every open-loop latency.
func pace(clk pacerClock, sched []time.Duration, handoff func(i int, lag time.Duration)) {
	for i := 0; i < len(sched); {
		clk.sleepUntil(sched[i])
		now := clk.now()
		for ; i < len(sched) && sched[i] <= now; i++ {
			handoff(i, now-sched[i])
		}
	}
}

// openLoop runs one open-loop phase. A single pacer releases arrivals
// on schedule; arrival i goes to connection i % conns, where a fixed
// set of sender goroutines takes it, so a slow reply delays only the
// sender that waits for it. do runs one request; it measures latency
// from intended, the arrival's scheduled send time. openLoop returns
// the pacer lags once every request has completed.
func openLoop(conns, sendersPerConn int, sched []time.Duration,
	do func(conn, i int, intended time.Time)) []time.Duration {
	base := time.Now()
	queues := make([]chan int, conns)
	var wg sync.WaitGroup
	for c := range queues {
		// Sized to the whole schedule: the pacer must never block on a
		// busy connection, or its lag would measure the program.
		queues[c] = make(chan int, len(sched))
		for s := 0; s < sendersPerConn; s++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range queues[c] {
					do(c, i, base.Add(sched[i]))
				}
			}(c)
		}
	}
	lags := make([]time.Duration, len(sched))
	pace(realClock{base}, sched, func(i int, lag time.Duration) {
		lags[i] = lag
		queues[i%conns] <- i
	})
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return lags
}

// closedLoop runs workers that each issue their next request only when
// the previous one has completed, until d has elapsed. It returns the
// number of requests completed and the elapsed time.
func closedLoop(workers int, d time.Duration, do func(worker int)) (int, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(w)
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return int(done.Load()), time.Since(start)
}
