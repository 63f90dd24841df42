package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/vec"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the span that made the call (0 for a
// request's root). Setup work (registration, seeding) carries Req 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // nanoseconds since the tracer's epoch
	End    int64  `json:"end"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and costs its callers one nil check.
type tracer struct {
	epoch time.Time
	next  *atomic.Uint64 // shared across tracers so span IDs never collide
	mu    sync.Mutex
	spans []span
}

func newTracer(ids *atomic.Uint64) *tracer {
	return &tracer{epoch: time.Now(), next: ids}
}

// open is a span in progress.
type open struct {
	id, parent, req uint64
	name            string
	start           time.Time
}

func (t *tracer) begin(name string, req, parent uint64) open {
	if t == nil {
		return open{}
	}
	return t.beginAt(name, req, parent, time.Now())
}

// beginAt opens a span that started earlier, such as an open-loop
// request whose clock starts at its intended send time.
func (t *tracer) beginAt(name string, req, parent uint64, start time.Time) open {
	if t == nil {
		return open{}
	}
	return open{id: t.next.Add(1), parent: parent, req: req, name: name, start: start}
}

func (t *tracer) end(o open) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: int64(o.start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// op is one call the benchmark made to the daemon, logged in the traced
// pass so the same sequence can be replayed against an in-process stack.
type op struct {
	at    time.Duration // issue time, orders the replay
	req   uint64
	multi bool
	reg   []service.KeyTypeDef // non-nil: a registration of fn
	fn    string
	looks []service.LookupSub
	puts  []service.PutSub
}

// pass is one execution of a workload against a daemon.
type pass struct {
	tr      *tracer // nil in the untraced pass
	epoch   time.Time
	nextReq atomic.Uint64
	mu      sync.Mutex
	ops     []op
}

func newPass(traced bool, ids *atomic.Uint64) *pass {
	p := &pass{epoch: time.Now()}
	if traced {
		p.tr = newTracer(ids)
		p.tr.epoch = p.epoch
	}
	return p
}

func (p *pass) newReq() uint64 { return p.nextReq.Add(1) }

func (p *pass) log(o op) {
	if p.tr == nil {
		return
	}
	o.at = time.Since(p.epoch)
	p.mu.Lock()
	p.ops = append(p.ops, o)
	p.mu.Unlock()
}

// conn is one connection to the daemon, instrumented by the pass: each
// call returns its round-trip time, and in the traced pass is recorded
// as a service span and logged for the replay.
type conn struct {
	cl *service.Client
	p  *pass
}

func (c *conn) register(fn string, kts ...service.KeyTypeDef) error {
	c.p.log(op{fn: fn, reg: kts})
	sp := c.p.tr.begin("service.register", 0, 0)
	err := c.cl.Register(fn, kts...)
	c.p.tr.end(sp)
	return err
}

func (c *conn) lookup(req, parent uint64, fn, kt string, key vec.Vector) (service.LookupResult, time.Duration, error) {
	c.p.log(op{req: req, looks: []service.LookupSub{{Function: fn, KeyType: kt, Key: key}}})
	sp := c.p.tr.begin("service.lookup", req, parent)
	t0 := time.Now()
	res, err := c.cl.Lookup(fn, kt, key)
	rtt := time.Since(t0)
	c.p.tr.end(sp)
	return res, rtt, err
}

func (c *conn) put(req, parent uint64, sub service.PutSub) (time.Duration, error) {
	c.p.log(op{req: req, puts: []service.PutSub{sub}})
	sp := c.p.tr.begin("service.put", req, parent)
	t0 := time.Now()
	_, err := c.cl.Put(sub.Function, sub.Keys, sub.Value, service.PutOptions{
		Cost: time.Duration(sub.Cost), Size: int(sub.Size), TTL: time.Duration(sub.TTL),
	})
	rtt := time.Since(t0)
	c.p.tr.end(sp)
	return rtt, err
}

func (c *conn) multiLookup(req, parent uint64, subs []service.LookupSub) ([]service.MultiLookupResult, time.Duration, error) {
	c.p.log(op{req: req, multi: true, looks: subs})
	sp := c.p.tr.begin("service.multilookup", req, parent)
	t0 := time.Now()
	res, err := c.cl.MultiLookup(subs)
	rtt := time.Since(t0)
	c.p.tr.end(sp)
	return res, rtt, err
}

// multiPut returns how many sub-puts the daemon admitted beside the
// first error: a frame error admits none, a failed sub-put leaves its
// siblings admitted.
func (c *conn) multiPut(req, parent uint64, subs []service.PutSub) (time.Duration, int, error) {
	c.p.log(op{req: req, multi: true, puts: subs})
	sp := c.p.tr.begin("service.multiput", req, parent)
	t0 := time.Now()
	res, err := c.cl.MultiPut(subs)
	rtt := time.Since(t0)
	c.p.tr.end(sp)
	if err != nil {
		return rtt, 0, err
	}
	admitted := 0
	for i, r := range res {
		if r.Err != nil {
			err = firstOf(err, fmt.Errorf("sub-put %d of %d: %w", i, len(subs), r.Err))
			continue
		}
		admitted++
	}
	return rtt, admitted, err
}

// putSubWireSize is the exact encoded size of one sub-put inside a
// MultiPut frame (see service.EncodePutSubs).
func putSubWireSize(s service.PutSub) int {
	n := 4 + 4 + len(s.Function) + 4 + 4 + len(s.Value) + 4*8
	for name, k := range s.Keys {
		n += 4 + len(name) + 4 + 8*len(k)
	}
	return n
}

// envelopeAllowance covers the MultiPut request envelope around the
// sub-puts: message type, app and function names, counts, trailers.
const envelopeAllowance = 1 << 10

// seedFrames splits seeding puts into MultiPut frames that each stay
// within the wire's frame limit, service.MaxMessageSize, as well as the
// sub-operation limit, service.MaxBatch. (potluck-loadgen bounds its
// seeding frames by MaxBatch alone, so -keys 4096 of 768-d keys builds
// a 25 MB frame that the client refuses.)
func seedFrames(subs []service.PutSub) [][]service.PutSub {
	var frames [][]service.PutSub
	start, size := 0, 4+envelopeAllowance
	for i, s := range subs {
		n := putSubWireSize(s)
		if i > start && (size+n > service.MaxMessageSize || i-start == service.MaxBatch) {
			frames = append(frames, subs[start:i])
			start, size = i, 4+envelopeAllowance
		}
		size += n
	}
	if start < len(subs) {
		frames = append(frames, subs[start:])
	}
	return frames
}

// seed sends the seeding puts in wire-bounded frames as setup work.
func (c *conn) seed(subs []service.PutSub) error {
	for _, f := range seedFrames(subs) {
		if _, _, err := c.multiPut(0, 0, f); err != nil {
			return fmt.Errorf("seed: %w", err)
		}
	}
	return nil
}

// firstErr keeps the first error reported by concurrent workers.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
