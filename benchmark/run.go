package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// workload is one traffic mix. prepare builds every input from the
// seed before the daemon starts, so input generation never counts as
// set-up time or competes with the timed window.
type workload interface {
	prepare(seed int64) error
	daemonArgs(dir string) []string
	// setup registers functions and seeds the daemon: the work setup_s
	// times between exec and the first timed operation.
	setup(cs []*conn) error
	// measure runs the timed phases and checks every reply it gets.
	measure(p *pass, cs []*conn, seconds float64, out *outcome) error
	// verify runs the checks that need work outside the timed window.
	verify(out *outcome) error
	// stack describes the daemon's configuration for the in-process
	// replay of the traced pass.
	stack() stackConfig
	extractTimes() latencies
	classifyTimes() latencies
}

// connCount is the number of connections every workload uses: two apps,
// capped at the host's CPU count, since the benchmark drives the daemon
// over at most nproc connections.
func connCount() int {
	return max(1, min(2, runtime.NumCPU()))
}

// phase accumulates one timed phase's results from concurrent workers.
type phase struct {
	mu        sync.Mutex
	request   latencies // one per request, from when it was sent
	queued    latencies // one per request, from its intended send time
	lookup    latencies // lookup round trips (single or batch)
	put       latencies // put round trips (single or batch)
	tally     lookupTally
	results   int64 // results delivered to applications
	correct   int64 // of which equal to the native computation
	attempted int64 // requests attempted
	failed    int64 // requests that failed or were refused
	thresh    []float64
	firstFail string
	errs      firstErr // correctness violations
}

func (ph *phase) failOp(err error) {
	ph.mu.Lock()
	ph.attempted++
	ph.failed++
	ph.request.fail()
	ph.queued.fail()
	if ph.firstFail == "" {
		ph.firstFail = err.Error()
	}
	ph.mu.Unlock()
}

// lookups records one lookup round trip covering n sub-lookups.
func (ph *phase) lookups(rtt time.Duration, n, hits, dropouts int, threshold float64) {
	ph.mu.Lock()
	ph.lookup.add(rtt)
	ph.tally.Lookups += int64(n)
	ph.tally.Hits += int64(hits)
	ph.tally.Dropouts += int64(dropouts)
	if n > 0 {
		ph.thresh = append(ph.thresh, threshold)
	}
	ph.mu.Unlock()
}

// puts records one put round trip covering n sub-puts.
func (ph *phase) puts(rtt time.Duration, n int) {
	ph.mu.Lock()
	ph.put.add(rtt)
	ph.tally.Puts += int64(n)
	ph.mu.Unlock()
}

// done records a completed request: its latency from when it was sent,
// from when it was due (the same in a closed loop), and the results it
// delivered.
func (ph *phase) done(lat, sinceDue time.Duration, results, correct int) {
	ph.mu.Lock()
	ph.attempted++
	ph.request.add(lat)
	ph.queued.add(sinceDue)
	ph.results += int64(results)
	ph.correct += int64(correct)
	ph.mu.Unlock()
}

// outcome is one pass's measurements. Latency distributions come from
// the open-loop phase (or, for a closed-loop-only workload, from its
// closed loop); counts cover every timed phase.
type outcome struct {
	dist      *phase // the phase whose latencies are reported
	phases    []*phase
	openLoop  bool
	closed    int // closed-loop requests completed
	closedDur time.Duration
	lags      []time.Duration
	setups    []time.Duration
	// rss is the daemon's peak RSS, read by peakRSS when the workload
	// marks a fixed amount of work done (rssNote says where), or else
	// at the end of the window.
	rss       int64
	rssNote   string
	peakRSS   func() (int64, error)
	daemonCPU time.Duration
	genCPU    time.Duration
	// cpu reports the CPU time potluckd and this process have used so
	// far; a workload differences it around the phase whose requests
	// cpu_us_per_request divides (cost, costRequests).
	cpu          func() time.Duration
	cpuErr       error
	cost         time.Duration
	costRequests int64
	window       time.Duration
	steal        float64 // share of host CPU time the hypervisor took during the window
	setupSteal   float64 // the same during the set-ups
	before       service.StatsPayload
	after        service.StatsPayload
}

func (o *outcome) addOpen(ph *phase) {
	o.dist, o.openLoop = ph, true
	o.phases = append(o.phases, ph)
}

func (o *outcome) addClosed(ph *phase, done int, d time.Duration) {
	if o.dist == nil {
		o.dist = ph
	}
	o.phases = append(o.phases, ph)
	o.closed, o.closedDur = done, d
}

func (o *outcome) tally() lookupTally {
	var t lookupTally
	for _, ph := range o.phases {
		t.Lookups += ph.tally.Lookups
		t.Hits += ph.tally.Hits
		t.Dropouts += ph.tally.Dropouts
		t.Puts += ph.tally.Puts
	}
	return t
}

func (o *outcome) counts() (attempted, failed, results, correct int64, firstFail string) {
	for _, ph := range o.phases {
		attempted += ph.attempted
		failed += ph.failed
		results += ph.results
		correct += ph.correct
		if firstFail == "" {
			firstFail = ph.firstFail
		}
	}
	return
}

func (o *outcome) thresholds() []float64 {
	var out []float64
	for _, ph := range o.phases {
		out = append(out, ph.thresh...)
	}
	return out
}

func firstOf(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// A pass sets the daemon up at least minSetups times and until the
// set-ups have taken minSetupTime, at most maxSetups times; setup_s is
// the median, and only the last daemon serves the timed window. A
// set-up of a few milliseconds needs more samples for a steady median.
const (
	minSetups    = 7
	maxSetups    = 25
	minSetupTime = 3 * time.Second
)

// runPass executes a workload once against fresh daemons: set-up
// (repeated), the timed window, and the post-window checks.
func runPass(w workload, o options, traced bool, ids *atomic.Uint64) (*pass, *outcome, error) {
	out := &outcome{}
	root := filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(root)
	name := "plain"
	if traced {
		name = "traced"
	}
	var (
		p  *pass
		d  *daemon
		cs []*conn
	)
	var spent time.Duration
	tot0, st0 := hostSteal()
	for i := 0; ; i++ {
		// spent covers the set-ups before this one.
		last := i+1 >= maxSetups || (i+1 >= minSetups && spent >= minSetupTime)
		// Only the kept daemon's set-up belongs to the traced sequence.
		p = newPass(traced && last, ids)
		dir := filepath.Join(root, fmt.Sprintf("%s-%d", name, i))
		t0 := time.Now()
		var err error
		d, err = startDaemon(o.potluckd, dir, w.daemonArgs(dir))
		if err != nil {
			return nil, nil, err
		}
		cs, err = dialAll(d, connCount(), p)
		if err == nil {
			err = w.setup(cs)
		}
		if err == nil {
			out.before, err = cs[0].cl.Stats()
		}
		took := time.Since(t0)
		out.setups = append(out.setups, took)
		spent += took
		if err == nil && last {
			break
		}
		closeAll(cs)
		d.stop()
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		os.RemoveAll(dir)
	}
	tot1, st1 := hostSteal()
	out.setupSteal = ratio(st1-st0, tot1-tot0)
	defer d.stop()
	defer closeAll(cs)

	out.peakRSS = d.peakRSS
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, nil, err
	}
	out.cpu = func() time.Duration {
		dc, err := d.cpuTime()
		if err != nil {
			out.cpuErr = err
		}
		return dc + selfCPU()
	}
	g0, t0 := selfCPU(), time.Now()
	tot0, st0 = hostSteal()
	merr := w.measure(p, cs, o.seconds, out)
	out.window = time.Since(t0)
	tot1, st1 = hostSteal()
	out.steal = ratio(st1-st0, tot1-tot0)
	out.genCPU = selfCPU() - g0
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, nil, err
	}
	out.daemonCPU = cpu1 - cpu0
	if err := d.alive(); err != nil {
		return nil, nil, err
	}
	if merr != nil {
		return nil, nil, merr
	}
	if out.cpuErr != nil {
		return nil, nil, out.cpuErr
	}
	if out.after, err = cs[0].cl.Stats(); err != nil {
		return nil, nil, err
	}
	if err := checkStats(out.before, out.after, out.tally()); err != nil {
		return nil, nil, err
	}
	if out.rss == 0 {
		if out.rss, err = d.peakRSS(); err != nil {
			return nil, nil, err
		}
		out.rssNote = "at the end of the window"
	}
	if err := w.verify(out); err != nil {
		return nil, nil, err
	}
	return p, out, nil
}

func dialAll(d *daemon, n int, p *pass) ([]*conn, error) {
	var cs []*conn
	for i := 0; i < n; i++ {
		cl, err := service.DialConfig("unix", d.sock, fmt.Sprintf("app-%d", i), service.ClientConfig{MaxAttempts: 1})
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, &conn{cl: cl, p: p})
	}
	return cs, nil
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.cl.Close()
	}
}
