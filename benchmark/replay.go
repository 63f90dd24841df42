package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/whatif"
)

// stackConfig is the part of a workload's potluckd configuration the
// in-process replay must mirror.
type stackConfig struct {
	maxEntries int
	store      bool // -data-dir: a *store.Log behind core.Store
	whatif     bool // -whatif: a *whatif.Profiler behind core.Tap
}

// potluckd's defaults for the flags the benchmark leaves unset.
const daemonMaxBytes = 512 << 20

// idxOp is one index operation the in-process cache performed, replayed
// afterwards against a bare index of the same kind.
type idxOp struct {
	kind byte // 's'earch, 'i'nsert, 'r'emove
	req  uint64
	fn   string
	id   uint64
	key  vec.Vector
}

// replayer hosts the daemon's stack in this process and replays a
// traced pass's operation sequence against it, one operation at a time
// in issue order. Spans wrap each core.Cache call; the timing
// decorators below wrap the core.Store and core.Tap implementations
// the cache calls into, so their spans are children of the core span.
type replayer struct {
	tr  *tracer
	cur open // the core call in progress; read by the decorators

	mu     sync.Mutex
	idx    []idxOp
	idFn   map[uint64]string // entry ID → function, for removals
	subPut int64
}

func (r *replayer) addIdx(o idxOp) {
	r.mu.Lock()
	r.idx = append(r.idx, o)
	r.mu.Unlock()
}

// timedStore times the cache's appends to the durable store and records
// the admissions and removals the index replay needs.
type timedStore struct {
	r    *replayer
	next core.Store
}

func (s *timedStore) LogRegister(fn string, kts []core.StoreKeyType) {
	sp := s.r.tr.begin("store.logregister", s.r.cur.req, s.r.cur.id)
	s.next.LogRegister(fn, kts)
	s.r.tr.end(sp)
}

func (s *timedStore) LogPut(rec core.StoreEntry) {
	sp := s.r.tr.begin("store.logput", s.r.cur.req, s.r.cur.id)
	s.next.LogPut(rec)
	s.r.tr.end(sp)
	s.r.mu.Lock()
	s.r.idFn[rec.ID] = rec.Function
	for _, k := range rec.Keys {
		// The tuner's nearest-neighbour probe precedes every insert.
		s.r.idx = append(s.r.idx,
			idxOp{kind: 's', req: s.r.cur.req, fn: rec.Function, key: k.Key},
			idxOp{kind: 'i', req: s.r.cur.req, fn: rec.Function, id: rec.ID, key: k.Key})
	}
	s.r.mu.Unlock()
}

func (s *timedStore) LogDelete(id uint64) {
	sp := s.r.tr.begin("store.logdelete", s.r.cur.req, s.r.cur.id)
	s.next.LogDelete(id)
	s.r.tr.end(sp)
	s.r.mu.Lock()
	s.r.idx = append(s.r.idx, idxOp{kind: 'r', req: s.r.cur.req, fn: s.r.idFn[id], id: id})
	s.r.mu.Unlock()
}

// timedTap times the cache's calls into the what-if profiler.
type timedTap struct {
	r    *replayer
	next core.Tap
}

func (t *timedTap) TapLookup(fn, keyType string, key vec.Vector, dist, threshold float64, hit bool, nowNanos int64) {
	sp := t.r.tr.begin("whatif.taplookup", t.r.cur.req, t.r.cur.id)
	t.next.TapLookup(fn, keyType, key, dist, threshold, hit, nowNanos)
	t.r.tr.end(sp)
}

func (t *timedTap) TapPut(fn string, keyTypes []string, keys []vec.Vector, id uint64, size int, costNanos, nowNanos int64) {
	sp := t.r.tr.begin("whatif.tapput", t.r.cur.req, t.r.cur.id)
	t.next.TapPut(fn, keyTypes, keys, id, size, costNanos, nowNanos)
	t.r.tr.end(sp)
}

// replayResult is what the in-process passes measured.
type replayResult struct {
	core, index []span
	stats       core.Stats
	evictions   int64 // during the timed operations
	tightenings int
	subPuts     int64         // timed sub-puts
	wall        time.Duration // replay time of the timed operations
	store       *store.Stats
	whatif      *whatif.Report
	probes      index.ProbeStats
}

// replay runs the traced pass's operations against core.Cache configured
// as the daemon was. After each cache call it runs the index operations
// that call performed against bare indexes of the same kind, so the two
// passes that the core self time is the difference of run under the same
// host conditions.
func replay(p *pass, cfg stackConfig, dir string, ids *atomic.Uint64) (*replayResult, error) {
	ops := append([]op(nil), p.ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	r := &replayer{tr: newTracer(ids), idFn: make(map[uint64]string)}

	ccfg := core.Config{
		MaxEntries:  cfg.maxEntries,
		MaxBytes:    daemonMaxBytes,
		DefaultTTL:  time.Hour,
		DropoutRate: core.DefaultDropoutRate,
		Policy:      core.PolicyImportance,
		Tuner:       core.TunerConfig{WarmupZ: 100, K: 4, Gamma: 0.8},
	}
	var lg *store.Log
	if cfg.store {
		var err error
		lg, err = store.Open(store.Config{Dir: filepath.Join(dir, "replay-data")})
		if err != nil {
			return nil, err
		}
		defer lg.Close()
		ccfg.Store = &timedStore{r: r, next: lg}
	}
	var prof *whatif.Profiler
	if cfg.whatif {
		prof = whatif.New(whatif.Config{Capacity: cfg.maxEntries, CapacityBytes: daemonMaxBytes})
		prof.Start()
		defer prof.Close()
		ccfg.Tap = &timedTap{r: r, next: prof}
	}
	cache := core.New(ccfg)
	bare := newBareIndex(ids)
	type fk struct{ fn, kt string }
	var regs []fk

	// Set-up operations (registration, seeding) carry request 0 and sort
	// first; the counters below are differenced from where they end.
	t0 := time.Now()
	var setupStats core.Stats
	var setupStore store.Stats
	timed := false
	for _, o := range ops {
		if !timed && o.req != 0 {
			timed, t0 = true, time.Now()
			setupStats, r.subPut = cache.Stats(), 0
			if lg != nil {
				setupStore = lg.Stats()
			}
		}
		var err error
		switch {
		case o.reg != nil:
			specs := make([]core.KeyTypeSpec, len(o.reg))
			for i, d := range o.reg {
				specs[i] = core.KeyTypeSpec{Name: d.Name, Metric: vec.EuclideanMetric{}, Index: index.Kind(d.Index), Dim: int(d.Dim)}
				regs = append(regs, fk{o.fn, d.Name})
			}
			r.cur = r.tr.begin("core.register", o.req, 0)
			err = cache.RegisterFunction(o.fn, specs...)
			r.tr.end(r.cur)
		case len(o.looks) > 0:
			err = r.lookups(cache, o)
		case len(o.puts) > 0:
			err = r.puts(cache, o, lg == nil)
		}
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		r.mu.Lock()
		pending := r.idx
		r.idx = nil
		r.mu.Unlock()
		if err := bare.apply(pending); err != nil {
			return nil, fmt.Errorf("index replay: %w", err)
		}
	}
	res := &replayResult{wall: time.Since(t0), stats: cache.Stats(), subPuts: r.subPut}
	res.evictions = res.stats.Evictions - setupStats.Evictions
	for _, k := range regs {
		if st, err := cache.TunerStats(k.fn, k.kt); err == nil {
			res.tightenings += st.Tightenings
		}
	}
	if lg == nil && res.stats.Evictions > 0 {
		return nil, fmt.Errorf("replay: %d evictions without a store to observe them", res.stats.Evictions)
	}
	if lg != nil {
		st := lg.Stats()
		st.BytesWritten -= setupStore.BytesWritten
		st.Fsyncs -= setupStore.Fsyncs
		res.store = &st
	}
	if prof != nil {
		rep := prof.Snapshot()
		res.whatif = &rep
	}
	res.core = r.tr.spans
	res.index = bare.tr.spans
	for _, ix := range bare.idxs {
		s := ix.ProbeStats()
		res.probes.Queries += s.Queries
		res.probes.Probes += s.Probes
	}
	return res, nil
}

func (r *replayer) lookups(cache *core.Cache, o op) error {
	if !o.multi {
		s := o.looks[0]
		r.cur = r.tr.begin("core.lookup", o.req, 0)
		res, err := cache.Lookup(s.Function, s.KeyType, s.Key)
		r.tr.end(r.cur)
		if err != nil {
			return err
		}
		if !res.Dropout {
			r.addIdx(idxOp{kind: 's', req: o.req, fn: s.Function, key: s.Key})
		}
		return nil
	}
	batch := make([]core.BatchLookup, len(o.looks))
	for i, s := range o.looks {
		batch[i] = core.BatchLookup{Function: s.Function, KeyType: s.KeyType, Key: s.Key}
	}
	r.cur = r.tr.begin("core.multilookup", o.req, 0)
	out := cache.MultiLookup(batch)
	r.tr.end(r.cur)
	for i, res := range out {
		if res.Err != nil {
			return res.Err
		}
		if !res.Dropout {
			r.addIdx(idxOp{kind: 's', req: o.req, fn: o.looks[i].Function, key: o.looks[i].Key})
		}
	}
	return nil
}

func (r *replayer) puts(cache *core.Cache, o op, logInserts bool) error {
	reqs := make([]core.BatchPut, len(o.puts))
	for i, s := range o.puts {
		reqs[i] = core.BatchPut{Function: s.Function, Req: putRequest(s)}
	}
	r.subPut += int64(len(reqs))
	var ids []core.ID
	if !o.multi {
		r.cur = r.tr.begin("core.put", o.req, 0)
		id, err := cache.Put(reqs[0].Function, reqs[0].Req)
		r.tr.end(r.cur)
		if err != nil {
			return err
		}
		ids = []core.ID{id}
	} else {
		r.cur = r.tr.begin("core.multiput", o.req, 0)
		out := cache.MultiPut(reqs)
		r.tr.end(r.cur)
		for _, res := range out {
			if res.Err != nil {
				return res.Err
			}
			ids = append(ids, res.ID)
		}
	}
	if logInserts {
		for i, s := range o.puts {
			for _, k := range s.Keys {
				r.addIdx(idxOp{kind: 's', req: o.req, fn: s.Function, key: k})
				r.addIdx(idxOp{kind: 'i', req: o.req, fn: s.Function, id: uint64(ids[i]), key: k})
			}
		}
	}
	return nil
}

// putRequest translates a wire sub-put as the daemon's handler does.
func putRequest(s service.PutSub) core.PutRequest {
	return core.PutRequest{
		Keys:  s.Keys,
		Value: s.Value,
		Cost:  time.Duration(s.Cost),
		Size:  int(s.Size),
		TTL:   time.Duration(s.TTL),
	}
}

// bareIndex replays index operations against one bare KD-tree per
// function, the kind every workload registers.
type bareIndex struct {
	tr   *tracer
	idxs map[string]index.Index
}

func newBareIndex(ids *atomic.Uint64) *bareIndex {
	return &bareIndex{tr: newTracer(ids), idxs: make(map[string]index.Index)}
}

func (b *bareIndex) apply(ops []idxOp) error {
	for _, o := range ops {
		ix := b.idxs[o.fn]
		if ix == nil {
			var err error
			if ix, err = index.New(index.KindKDTree, vec.EuclideanMetric{}, len(o.key)); err != nil {
				return err
			}
			b.idxs[o.fn] = ix
		}
		switch o.kind {
		case 's':
			sp := b.tr.begin("index.search", o.req, 0)
			ix.Nearest(o.key)
			b.tr.end(sp)
		case 'i':
			sp := b.tr.begin("index.insert", o.req, 0)
			err := ix.Insert(index.ID(o.id), o.key)
			b.tr.end(sp)
			if err != nil {
				return err
			}
		case 'r':
			sp := b.tr.begin("index.remove", o.req, 0)
			ix.Remove(index.ID(o.id))
			b.tr.end(sp)
		}
	}
	return nil
}
