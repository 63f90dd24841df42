package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/feature"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/vec"
)

// appsRecognition is the paper's cross-application recognition (Fig 3,
// Fig 10a/c): two apps, one connection each, process one shared camera
// feed at an offset. Per frame an app extracts the Downsample key, looks
// it up, and on a miss classifies the frame natively and puts the label
// with the measured cost. Dropout and Algorithm 1 run live in the
// daemon. The feed is rendered before the timed window and replayed in
// rounds; each round uses a fresh function, so every round starts from
// an empty cache and a cold tuner, and the workload is the same however
// many frames the window holds. Finished rounds stay in the daemon, so
// its peak RSS is read when the first app finishes round 0 (rssRound):
// a fixed amount of work, not one that grows with the frames a window
// completes.
type appsRecognition struct {
	clf    *nn.Classifier
	frames []*imaging.RGB
	keys   []vec.Vector // Downsample keys of the frames, for the checks only
	native []int        // the classifier's label for each frame

	// markRSS reads the daemon's peak RSS; ensureRound calls it once,
	// when an app first reaches rssRound.
	markRSS func()

	mu      sync.Mutex
	regs    map[int]*sync.Once
	regErr  firstErr
	hits    []recogHit
	puts    map[int]map[int][]int // round → label → frames put
	extract latencies
	classes latencies
}

type recogHit struct {
	round, frame int
	res          served
}

const (
	recogKeyType = "downsamp"
	recogScenes  = 60 // six of each class, in a seeded order
	recogScene   = 15 // frames per scene: one object under a moving camera
	recogSide    = 48
	// recogOffset is how far the second app runs ahead in the feed.
	recogOffset   = recogScene / 2
	recogTrainPer = 6 // classifier training images per class
	recogObjects  = 1 // seed of the object set and the classifier
	rssRound      = 1
)

func recogFn(round int) string { return fmt.Sprintf("recog-%d", round) }

func (w *appsRecognition) prepare(seed int64) error {
	// The objects and the recognizer are fixed; the seed orders the
	// objects and draws the camera paths and the sensor noise. Objects
	// differ in how well they dedup, so drawing them per seed would make
	// the hit rate a property of the draw rather than of the program.
	ds := synth.NewCIFARLike(recogObjects)
	clf, err := apps.TrainDefaultClassifier(ds, recogTrainPer, recogObjects)
	if err != nil {
		return err
	}
	w.clf = clf
	rng := rand.New(rand.NewSource(seed ^ 0xfeed))
	ext := feature.Downsample{}
	order := rng.Perm(recogScenes)
	for s := 0; s < recogScenes; s++ {
		k := order[s]
		obj := imaging.ResizeRGB(ds.Sample(k%ds.Classes, 1000+k).Image, recogSide, recogSide)
		phase := rng.Float64() * 2 * math.Pi
		for j := 0; j < recogScene; j++ {
			// Slow pan and zoom about the centre, plus sensor noise:
			// successive frames are slightly distorted versions of one
			// another (§2.2).
			t := float64(j)
			c := float64(recogSide) / 2
			z := 1 + 0.006*t
			m := imaging.Translation(0.2*t*math.Cos(phase), 0.2*t*math.Sin(phase)).Mul(imaging.ScalingAbout(z, z, c, c))
			f, err := imaging.WarpRGB(obj, m, 0.5, 0.5, 0.5)
			if err != nil {
				return err
			}
			f = imaging.AddNoiseRGB(f, 0.01, rng)
			w.frames = append(w.frames, f)
			w.keys = append(w.keys, ext.Extract(f).Key)
		}
	}
	// Native labels, classified before any timed window.
	w.native = make([]int, len(w.frames))
	var wg sync.WaitGroup
	workers := connCount()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(w.frames); i += workers {
				w.native[i], _ = w.clf.Classify(w.frames[i])
			}
		}(k)
	}
	wg.Wait()
	return nil
}

func (w *appsRecognition) daemonArgs(string) []string { return nil }
func (w *appsRecognition) stack() stackConfig         { return stackConfig{} }

func (w *appsRecognition) keyType() service.KeyTypeDef {
	return service.KeyTypeDef{Name: recogKeyType, Metric: "euclidean", Index: "kdtree", Dim: feature.DownsampleDims}
}

// setup registers round 0; later rounds are registered by whichever app
// reaches them first, inside the timed window, as an app would.
func (w *appsRecognition) setup(cs []*conn) error {
	w.mu.Lock()
	w.regs = map[int]*sync.Once{0: new(sync.Once)}
	w.mu.Unlock()
	var err error
	w.regs[0].Do(func() { err = cs[0].register(recogFn(0), w.keyType()) })
	return err
}

func (w *appsRecognition) ensureRound(c *conn, round int) error {
	w.mu.Lock()
	once := w.regs[round]
	if once == nil {
		once = new(sync.Once)
		w.regs[round] = once
	}
	w.mu.Unlock()
	once.Do(func() {
		if round == rssRound && w.markRSS != nil {
			w.markRSS()
		}
		if err := c.register(recogFn(round), w.keyType()); err != nil {
			w.regErr.set(err)
		}
	})
	return w.regErr.get()
}

func labelValue(label int) []byte { return []byte{'L', byte(label)} }

func decodeLabel(v []byte, classes int) (int, error) {
	if len(v) != 2 || v[0] != 'L' || int(v[1]) >= classes {
		return 0, errBadValue
	}
	return int(v[1]), nil
}

// app is one application's position in the shared feed.
type app struct {
	round, pos, start int
}

func (w *appsRecognition) frame(p *pass, c *conn, ph *phase, a *app) {
	fi := (a.start + a.pos) % len(w.frames)
	round := a.round
	if a.pos++; a.pos == len(w.frames) {
		a.round, a.pos = a.round+1, 0
	}
	if err := w.ensureRound(c, round); err != nil {
		ph.failOp(err)
		return
	}
	fn := recogFn(round)
	img := w.frames[fi]
	req := p.newReq()
	t0 := time.Now()
	root := p.tr.beginAt("request", req, 0, t0)
	defer p.tr.end(root)

	sp := p.tr.begin("feature.extract", req, root.id)
	e0 := time.Now()
	key := feature.Downsample{}.Extract(img).Key
	ext := time.Since(e0)
	p.tr.end(sp)

	res, rtt, err := c.lookup(req, root.id, fn, recogKeyType, key)
	if err != nil {
		ph.failOp(err)
		return
	}
	var label int
	var putRTT, cls time.Duration
	if res.Hit {
		if label, err = decodeLabel(res.Value, w.clf.Classes()); err != nil {
			ph.errs.set(fmt.Errorf("apps-recognition: frame %d: hit value: %w", fi, err))
			return
		}
		w.mu.Lock()
		w.hits = append(w.hits, recogHit{round, fi, served{res.Distance, res.Threshold, res.Value}})
		w.mu.Unlock()
	} else {
		sp := p.tr.begin("nn.classify", req, root.id)
		c0 := time.Now()
		label, _ = w.clf.Classify(img)
		cls = time.Since(c0)
		p.tr.end(sp)
		putRTT, err = c.put(req, root.id, service.PutSub{
			Function: fn,
			Keys:     map[string]vec.Vector{recogKeyType: key},
			Value:    labelValue(label),
			Cost:     int64(cls),
		})
		if err != nil {
			ph.failOp(err)
			return
		}
		w.mu.Lock()
		byLabel := w.puts[round]
		if byLabel == nil {
			byLabel = make(map[int][]int)
			w.puts[round] = byLabel
		}
		byLabel[label] = append(byLabel[label], fi)
		w.mu.Unlock()
	}
	lat := time.Since(t0)
	ph.lookups(rtt, 1, b2i(res.Hit), b2i(res.Dropout), res.Threshold)
	w.mu.Lock()
	w.extract.add(ext)
	if !res.Hit {
		w.classes.add(cls)
	}
	w.mu.Unlock()
	if !res.Hit {
		ph.puts(putRTT, 1)
	}
	ph.done(lat, lat, 1, b2i(label == w.native[fi]))
}

func (w *appsRecognition) measure(p *pass, cs []*conn, seconds float64, out *outcome) error {
	w.mu.Lock()
	w.hits, w.puts = nil, make(map[int]map[int][]int)
	w.extract, w.classes = nil, nil
	w.mu.Unlock()
	ph := new(phase)
	w.markRSS = func() {
		rss, err := out.peakRSS()
		if err != nil {
			ph.errs.set(err)
			return
		}
		out.rss, out.rssNote = rss, fmt.Sprintf("when an app finished round %d", rssRound-1)
	}
	as := []*app{{start: 0}, {start: recogOffset}}
	c0 := out.cpu()
	done, d := closedLoop(len(as), time.Duration(seconds*float64(time.Second)), func(wk int) {
		w.frame(p, cs[wk%len(cs)], ph, as[wk])
	})
	out.cost, out.costRequests = out.cpu()-c0, ph.attempted
	out.addClosed(ph, done, d)
	return ph.errs.get()
}

func (w *appsRecognition) verify(*outcome) error { return w.verifyHits(w.clf.Classes()) }

// verifyHits checks every hit against the puts of its round: some frame
// put with the served label must have its key at exactly the reported
// distance from the hit frame's key.
func (w *appsRecognition) verifyHits(classes int) error {
	for _, h := range w.hits {
		byLabel := w.puts[h.round]
		err := checkHit(w.keys[h.frame], h.res, func(v []byte) ([]vec.Vector, error) {
			label, err := decodeLabel(v, classes)
			if err != nil {
				return nil, err
			}
			frames := byLabel[label]
			keys := make([]vec.Vector, len(frames))
			for i, f := range frames {
				keys[i] = w.keys[f]
			}
			return keys, nil
		})
		if err != nil {
			return fmt.Errorf("apps-recognition: round %d frame %d: %w", h.round, h.frame, err)
		}
	}
	return nil
}

func (w *appsRecognition) extractTimes() latencies  { return w.extract }
func (w *appsRecognition) classifyTimes() latencies { return w.classes }
