package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/service"
	"repro/internal/vec"
)

// churnEvict is the AR-location write path: each request looks up a
// device's 8 poses in one MultiLookup and writes the misses back in one
// MultiPut of ~2 KB rendered results. Poses are drawn uniformly from a
// working set eight times the daemon's -max-entries, so most lookups
// miss and every put at capacity evicts,
// and the durable store and the what-if profiler are attached: the
// eviction scan, index removal, log appends and ghost caches do the
// work while the wire carries few, small frames.
type churnEvict struct {
	poses []vec.Vector
	seed  int64
}

const (
	churnFn        = "arloc"
	churnKeyType   = "pose"
	churnCapacity  = 4096
	churnPoses     = 8 * churnCapacity
	churnBatch     = 8
	churnValueSize = 2048
	// churnOpenRate is the open-loop offered load in requests/s, about
	// two fifths of the closed-loop capacity on a 2-vCPU host; the open
	// phase takes churnOpenShare of the window, so a 20 s window yields
	// 1 500 latency samples.
	churnOpenRate  = 100.0
	churnOpenShare = 0.75
	churnWindow    = 4
	churnSenders   = 4
)

func (w *churnEvict) prepare(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.poses = make([]vec.Vector, churnPoses)
	for i := range w.poses {
		w.poses[i] = vec.Vector{
			rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 3, // metres
			(rng.Float64()*2 - 1) * math.Pi, (rng.Float64()*2 - 1) * 0.3, (rng.Float64()*2 - 1) * 0.1, // yaw, pitch, roll
		}
	}
	w.seed = seed
	return nil
}

func (w *churnEvict) daemonArgs(dir string) []string {
	return []string{
		"-max-entries", strconv.Itoa(churnCapacity),
		"-data-dir", filepath.Join(dir, "data"),
		"-whatif",
	}
}

func (w *churnEvict) stack() stackConfig {
	return stackConfig{maxEntries: churnCapacity, store: true, whatif: true}
}

func (w *churnEvict) putSub(pose int) service.PutSub {
	return service.PutSub{
		Function: churnFn,
		Keys:     map[string]vec.Vector{churnKeyType: w.poses[pose]},
		Value:    encodeValue(pose, churnValueSize),
		Cost:     int64(5 * time.Millisecond),
	}
}

// setup fills the cache to capacity, so the timed window starts in the
// evicting steady state. Poses are drawn independently, so the first
// churnCapacity of them are as good a fill as any.
func (w *churnEvict) setup(cs []*conn) error {
	if err := cs[0].register(churnFn, service.KeyTypeDef{
		Name: churnKeyType, Metric: "euclidean", Index: "kdtree", Dim: 6,
	}); err != nil {
		return err
	}
	subs := make([]service.PutSub, churnCapacity)
	for r := range subs {
		subs[r] = w.putSub(r)
	}
	return cs[0].seed(subs)
}

// draw picks one request's distinct poses, uniformly.
func (w *churnEvict) draw(rng *rand.Rand) []int {
	out := make([]int, 0, churnBatch)
	for len(out) < churnBatch {
		p := rng.Intn(churnPoses)
		dup := false
		for _, q := range out {
			dup = dup || q == p
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

func (w *churnEvict) request(p *pass, c *conn, ph *phase, poses []int, due time.Time) {
	req := p.newReq()
	root := p.tr.beginAt("request", req, 0, due)
	sent := time.Now()
	defer p.tr.end(root)
	subs := make([]service.LookupSub, len(poses))
	for i, q := range poses {
		subs[i] = service.LookupSub{Function: churnFn, KeyType: churnKeyType, Key: w.poses[q]}
	}
	res, lookupRTT, err := c.multiLookup(req, root.id, subs)
	if err != nil {
		ph.failOp(err)
		return
	}
	// A failed sub-lookup fails the request, but its siblings were
	// answered and counted by the daemon, so they are tallied too.
	var puts []service.PutSub
	hits, dropouts, correct, answered := 0, 0, 0, 0
	threshold := 0.0
	var subErr error
	for i, r := range res {
		if r.Err != nil {
			subErr = firstOf(subErr, r.Err)
			continue
		}
		answered++
		threshold = r.Threshold
		if !r.Hit {
			dropouts += b2i(r.Dropout)
			puts = append(puts, w.putSub(poses[i]))
			correct++
			continue
		}
		hits++
		idx, err := w.checkHit(poses[i], r.LookupResult)
		if err != nil {
			ph.errs.set(err)
			continue
		}
		correct += b2i(idx == poses[i])
	}
	ph.lookups(lookupRTT, answered, hits, dropouts, threshold)
	if subErr != nil {
		ph.failOp(subErr)
		return
	}
	if len(puts) > 0 {
		putRTT, admitted, err := c.multiPut(req, root.id, puts)
		ph.puts(putRTT, admitted)
		if err != nil {
			ph.failOp(err)
			return
		}
	}
	end := time.Now()
	ph.done(end.Sub(sent), end.Sub(due), len(poses), correct)
}

func (w *churnEvict) checkHit(q int, res service.LookupResult) (int, error) {
	var idx int
	err := checkHit(w.poses[q], served{res.Distance, res.Threshold, res.Value}, func(v []byte) ([]vec.Vector, error) {
		i, err := decodeValue(v, churnValueSize, len(w.poses))
		idx = i
		return []vec.Vector{w.poses[i]}, err
	})
	if err != nil {
		return 0, fmt.Errorf("churn-evict: pose %d: %w", q, err)
	}
	return idx, nil
}

func (w *churnEvict) measure(p *pass, cs []*conn, seconds float64, out *outcome) error {
	rng := rand.New(rand.NewSource(w.seed ^ 0xc4a5))
	window := time.Duration(seconds * float64(time.Second))
	openDur := time.Duration(churnOpenShare * float64(window))
	sched := poissonSchedule(rng, churnOpenRate, openDur)
	draws := make([][]int, len(sched))
	for i := range draws {
		draws[i] = w.draw(rng)
	}
	open := new(phase)
	c0 := out.cpu()
	out.lags = openLoop(len(cs), churnSenders, sched, func(c, i int, intended time.Time) {
		w.request(p, cs[c], open, draws[i], intended)
	})
	out.cost, out.costRequests = out.cpu()-c0, open.attempted
	closed := new(phase)
	rngs := make([]*rand.Rand, churnWindow)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(rng.Int63()))
	}
	done, d := closedLoop(churnWindow, window-openDur, func(wk int) {
		w.request(p, cs[wk%len(cs)], closed, w.draw(rngs[wk]), time.Now())
	})
	out.addOpen(open)
	out.addClosed(closed, done, d)
	return firstOf(open.errs.get(), closed.errs.get())
}

func (w *churnEvict) verify(*outcome) error    { return nil }
func (w *churnEvict) extractTimes() latencies  { return nil }
func (w *churnEvict) classifyTimes() latencies { return nil }
