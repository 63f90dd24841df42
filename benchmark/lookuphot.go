package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/feature"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/vec"
)

// lookupHot is the read-only wire workload: single-op lookups of keys
// the daemon already holds. The pool of 768-d Downsample keys comes
// from correlated frames of one synthetic video feed and fits the
// daemon's default capacity, so after seeding no put, eviction or
// tuner update happens and the round trip dominates.
type lookupHot struct {
	pool    []vec.Vector
	extract latencies // Downsample calls that built the pool
	seed    int64
}

const (
	hotFn        = "hot"
	hotKeyType   = "downsamp"
	hotPoolSize  = 1024
	hotValueSize = 64
	// hotOpenRate is the open-loop offered load in lookups/s, a fifth of
	// the closed-loop capacity on a quiet 2-vCPU host, so the open-loop
	// latency is not a queueing figure.
	hotOpenRate = 3000.0
	// hotWindow is the closed-loop window: requests outstanding across
	// the connections at all times.
	hotWindow  = 8
	hotSenders = 4 // open-loop sender goroutines per connection
)

func (w *lookupHot) prepare(seed int64) error {
	feed := synth.NewVideo(synth.VideoConfig{W: 64, H: 48, Seed: seed, CutEvery: 256})
	ext := feature.Downsample{}
	seen := make(map[uint64]bool, hotPoolSize)
	for i := 0; len(w.pool) < hotPoolSize; i++ {
		frame := feed.Frame(i)
		t0 := time.Now()
		key := ext.Extract(frame).Key
		w.extract.add(time.Since(t0))
		// A query must identify exactly one stored key, or a correct hit
		// could serve another index's value.
		if h := keyHash(key); !seen[h] {
			seen[h] = true
			w.pool = append(w.pool, key)
		}
	}
	w.seed = seed
	return nil
}

func keyHash(k vec.Vector) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range k {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

func (w *lookupHot) daemonArgs(string) []string { return nil }

func (w *lookupHot) stack() stackConfig { return stackConfig{} }

func (w *lookupHot) setup(cs []*conn) error {
	if err := cs[0].register(hotFn, service.KeyTypeDef{
		Name: hotKeyType, Metric: "euclidean", Index: "kdtree", Dim: feature.DownsampleDims,
	}); err != nil {
		return err
	}
	subs := make([]service.PutSub, len(w.pool))
	for i, k := range w.pool {
		subs[i] = service.PutSub{
			Function: hotFn,
			Keys:     map[string]vec.Vector{hotKeyType: k},
			Value:    encodeValue(i, hotValueSize),
			Cost:     int64(10 * time.Millisecond),
		}
	}
	return cs[0].seed(subs)
}

// lookupOne issues one lookup of pool key q, due at the given time, and
// checks the reply.
func (w *lookupHot) lookupOne(p *pass, c *conn, ph *phase, q int, due time.Time) {
	req := p.newReq()
	root := p.tr.beginAt("request", req, 0, due)
	sent := time.Now()
	res, rtt, err := c.lookup(req, root.id, hotFn, hotKeyType, w.pool[q])
	p.tr.end(root)
	end := time.Now()
	if err != nil {
		ph.failOp(err)
		return
	}
	if res.Hit {
		if err := w.checkHit(q, res); err != nil {
			ph.errs.set(err)
		}
	}
	ph.lookups(rtt, 1, b2i(res.Hit), b2i(res.Dropout), res.Threshold)
	ph.done(end.Sub(sent), end.Sub(due), 1, 1)
}

func (w *lookupHot) checkHit(q int, res service.LookupResult) error {
	var idx int
	err := checkHit(w.pool[q], served{res.Distance, res.Threshold, res.Value}, func(v []byte) ([]vec.Vector, error) {
		i, err := decodeValue(v, hotValueSize, len(w.pool))
		idx = i
		return []vec.Vector{w.pool[i]}, err
	})
	if err != nil {
		return fmt.Errorf("lookup-hot: query %d: %w", q, err)
	}
	if err := checkExact(q, idx); err != nil {
		return fmt.Errorf("lookup-hot: %w", err)
	}
	return nil
}

func (w *lookupHot) measure(p *pass, cs []*conn, seconds float64, out *outcome) error {
	rng := rand.New(rand.NewSource(w.seed ^ 0x5eed))
	half := time.Duration(seconds * float64(time.Second) / 2)
	sched := poissonSchedule(rng, hotOpenRate, half)
	queries := make([]int, len(sched))
	for i := range queries {
		queries[i] = rng.Intn(len(w.pool))
	}
	open := new(phase)
	c0 := out.cpu()
	out.lags = openLoop(len(cs), hotSenders, sched, func(c, i int, intended time.Time) {
		w.lookupOne(p, cs[c], open, queries[i], intended)
	})
	out.cost, out.costRequests = out.cpu()-c0, open.attempted
	closed := new(phase)
	rngs := make([]*rand.Rand, hotWindow)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(rng.Int63()))
	}
	done, d := closedLoop(hotWindow, half, func(wk int) {
		w.lookupOne(p, cs[wk%len(cs)], closed, rngs[wk].Intn(len(w.pool)), time.Now())
	})
	out.addOpen(open)
	out.addClosed(closed, done, d)
	return firstOf(open.errs.get(), closed.errs.get())
}

func (w *lookupHot) verify(*outcome) error { return nil }

func (w *lookupHot) extractTimes() latencies  { return w.extract }
func (w *lookupHot) classifyTimes() latencies { return nil }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
