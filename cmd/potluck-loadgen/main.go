// Command potluck-loadgen drives a running potluckd with an open-loop
// workload and reports throughput and latency percentiles against a
// target SLO.
//
// The generator is open-loop (constant arrival rate, wrk2-style), not
// closed-loop: operation i is dispatched at start + i/rate regardless of
// whether earlier operations have completed, and each latency is
// measured from the operation's *intended* arrival time. A server that
// stalls therefore shows up as growing latency, not as a silently
// reduced offered load — the coordinated-omission trap a closed loop
// falls into.
//
// The workload models the paper's setting: -devices independent synth
// video feeds (successive frames are slightly distorted versions of one
// another, §2.2), -apps applications per device sharing the cache, keys
// drawn from each feed via the Downsamp extractor (Table 1) under a
// -dist popularity distribution. -batch groups consecutive arrivals
// into one MultiLookup/MultiPut wire frame; -batch 1 uses the
// single-operation messages.
//
// Usage:
//
//	potluck-loadgen [-network unix|tcp] [-addr /tmp/potluck.sock]
//	                [-addrs /run/a.sock,/run/b.sock,/run/c.sock]
//	                [-rate 2000] [-duration 10s] [-warmup 1s]
//	                [-devices 4] [-apps 2] [-batch 1] [-keys 256]
//	                [-dist exponential] [-put-ratio 0.05]
//	                [-slo 5ms] [-seed 1]
//
// -addrs targets a mesh: connections round-robin across the listed
// peers (overriding -addr), every peer is seeded, and the report breaks
// throughput, hit rate, errors, and latency out per peer alongside the
// aggregate — so killing one peer mid-run shows up as that peer's error
// count, not as a poisoned aggregate.
//
// The run's report is written to stdout as JSON (progress goes to
// stderr); the "throughput_ops_per_sec" and "slo_met" fields are the
// machine-readable summary CI keys on. The "env" section (git revision,
// Go version, GOMAXPROCS) plus the effective config make a report
// reproducible across hosts. The "servers" section is each target's own
// view of the run, scraped over the wire protocol at run end — cache
// hit/miss/dropout counters, entry count, and saved compute — so a
// client-vs-server hit-rate mismatch (e.g. dropped frames, mesh
// forwarding) is visible in one document.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/feature"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/vec"
	"repro/internal/workload"
)

const function = "loadgen"

func main() {
	var (
		network  = flag.String("network", "unix", `transport: "unix" or "tcp"`)
		addr     = flag.String("addr", "/tmp/potluck.sock", "socket path (unix) or host:port (tcp)")
		addrs    = flag.String("addrs", "", "comma-separated mesh peer addresses; connections round-robin across them (overrides -addr)")
		rate     = flag.Float64("rate", 2000, "offered load in lookups/sec across all connections")
		duration = flag.Duration("duration", 10*time.Second, "measured run length")
		warmup   = flag.Duration("warmup", time.Second, "initial window excluded from the report")
		devices  = flag.Int("devices", 4, "simulated devices, each with its own video feed")
		apps     = flag.Int("apps", 2, "applications per device, each with its own connection")
		batch    = flag.Int("batch", 1, "arrivals grouped into one wire frame (1 = single-op messages)")
		keys     = flag.Int("keys", 256, "key-pool size per device (frames extracted from its feed)")
		dist     = flag.String("dist", "exponential", "key popularity: uniform, exponential, zipf")
		putRatio = flag.Float64("put-ratio", 0.05, "fraction of dispatches that are puts instead of lookups")
		slo      = flag.Duration("slo", 5*time.Millisecond, "p99 latency objective the report judges")
		seed     = flag.Int64("seed", 1, "workload seed (feeds, popularity, op mix)")
	)
	flag.Parse()
	if *rate <= 0 || *devices < 1 || *apps < 1 || *batch < 1 || *keys < 1 {
		log.Fatal("potluck-loadgen: -rate, -devices, -apps, -batch and -keys must be positive")
	}
	if *batch > service.MaxBatch {
		log.Fatalf("potluck-loadgen: -batch %d exceeds the wire limit %d", *batch, service.MaxBatch)
	}

	log.SetOutput(os.Stderr)
	targets := parseTargets(*addrs, *addr)
	pools := buildKeyPools(*devices, *keys, *seed)

	// One connection per device×app pair: the paper's picture is many
	// applications sharing one service, each over its own IPC socket.
	// With multiple targets, a device's apps land on DIFFERENT mesh
	// nodes (round-robin by connection index), so the same content is
	// looked up via several nodes — the cross-node dedup the mesh exists
	// for.
	conns := make([]*service.Client, 0, *devices*(*apps))
	for d := 0; d < *devices; d++ {
		for a := 0; a < *apps; a++ {
			ci := len(conns)
			cl, err := service.Dial(*network, targets[ci%len(targets)], fmt.Sprintf("dev%d-app%d", d, a))
			if err != nil {
				log.Fatalf("potluck-loadgen: dial: %v", err)
			}
			defer cl.Close()
			conns = append(conns, cl)
		}
	}
	// Every target registers the function and holds the seed set, so the
	// measured run starts from the same warm state on every peer.
	for _, tgt := range targets {
		cl, err := service.Dial(*network, tgt, seedApp)
		if err != nil {
			log.Fatalf("potluck-loadgen: dial %s: %v", tgt, err)
		}
		if err := cl.Register(function, service.KeyTypeDef{
			Name:  feature.Downsample{}.Name(),
			Index: "kdtree",
			Dim:   feature.DownsampleDims,
		}); err != nil {
			log.Fatalf("potluck-loadgen: register %s: %v", tgt, err)
		}
		seedPools(cl, pools)
		cl.Close()
	}

	r := run(conns, pools, runConfig{
		rate:     *rate,
		duration: *duration,
		warmup:   *warmup,
		batch:    *batch,
		dist:     workload.Distribution(*dist),
		putRatio: *putRatio,
		seed:     *seed,
		targets:  targets,
	})
	r.SLOMs = float64(*slo) / float64(time.Millisecond)
	r.SLOMet = r.Latency.P99 <= r.SLOMs
	r.Config = reportConfig{
		Rate: *rate, DurationSec: duration.Seconds(), WarmupSec: warmup.Seconds(),
		Devices: *devices, Apps: *apps, Batch: *batch, Keys: *keys, Dist: *dist,
		PutRatio: *putRatio, Seed: *seed, SLOMs: float64(*slo) / float64(time.Millisecond),
		Network: *network, Targets: targets,
	}
	r.Env = buildEnv()
	r.Servers = scrapeServers(*network, targets)

	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatalf("potluck-loadgen: report: %v", err)
	}
	os.Stdout.Write(append(out, '\n'))
	if !r.SLOMet {
		os.Exit(1)
	}
}

// scrapeServers fetches each target's wire-protocol stats at run end.
// A scrape failure is reported in the row, not fatal: the load numbers
// are already collected and a peer that died mid-run is exactly the
// case the per-target breakdown exists for.
func scrapeServers(network string, targets []string) []serverReport {
	out := make([]serverReport, 0, len(targets))
	for _, tgt := range targets {
		row := serverReport{Addr: tgt}
		cl, err := service.Dial(network, tgt, "loadgen-stats")
		if err != nil {
			row.Err = err.Error()
			out = append(out, row)
			continue
		}
		st, err := cl.Stats()
		cl.Close()
		if err != nil {
			row.Err = err.Error()
			out = append(out, row)
			continue
		}
		row.Hits, row.Misses, row.Dropouts = st.Hits, st.Misses, st.Dropouts
		row.Puts, row.Evictions, row.Expirations = st.Puts, st.Evictions, st.Expirations
		row.Entries, row.Bytes = st.Entries, st.Bytes
		row.SavedComputeSec = float64(st.SavedComputeN) / float64(time.Second)
		if total := st.Hits + st.Misses; total > 0 {
			// Same convention as core.Stats.HitRate: dropouts are counted
			// separately, not as misses.
			row.HitRate = float64(st.Hits) / float64(total)
		}
		out = append(out, row)
	}
	return out
}

// parseTargets resolves the effective target list: -addrs entries when
// given, else the single -addr.
func parseTargets(addrs, addr string) []string {
	var out []string
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		out = []string{addr}
	}
	return out
}

// buildEnv captures the build and host facts that make a report
// reproducible: which revision produced the numbers and how much
// parallelism the host offered.
func buildEnv() reportEnv {
	env := reportEnv{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GitRevision: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.GitRevision = s.Value
			case "vcs.modified":
				env.GitDirty = s.Value == "true"
			}
		}
	}
	return env
}

// buildKeyPools extracts each device's key pool from its own correlated
// synth feed. Pools are precomputed so key generation never competes
// with the dispatch loop for CPU during the measured run.
func buildKeyPools(devices, keys int, seed int64) [][]vec.Vector {
	ext := feature.Downsample{}
	pools := make([][]vec.Vector, devices)
	for d := range pools {
		feed := synth.NewVideo(synth.VideoConfig{Seed: seed + int64(d), CutEvery: keys/4 + 1})
		pool := make([]vec.Vector, keys)
		for i := range pool {
			pool[i] = ext.Extract(feed.Frame(i)).Key
		}
		pools[d] = pool
	}
	return pools
}

// seedApp is the application name the seeding connection dials under.
const seedApp = "loadgen-seed"

// seedPools inserts every pool key up front so the measured run exercises
// the hit path (the steady state the paper cares about); -put-ratio keeps
// the write path in the mix.
func seedPools(cl *service.Client, pools [][]vec.Vector) {
	kt := feature.Downsample{}.Name()
	var subs []service.PutSub
	for d, pool := range pools {
		for i, key := range pool {
			subs = append(subs, service.PutSub{
				Function: function,
				Keys:     map[string]vec.Vector{kt: key},
				Value:    []byte(fmt.Sprintf("result-%d-%d", d, i)),
				Cost:     int64(10 * time.Millisecond),
			})
		}
	}
	for _, batch := range splitPuts(subs, seedApp, service.MaxMessageSize) {
		if _, err := cl.MultiPut(batch); err != nil {
			log.Fatalf("potluck-loadgen: seed puts: %v", err)
		}
	}
}

// splitPuts cuts subs, in order, into MultiPut frames of at most
// service.MaxBatch sub-operations whose encoded request, sent under app,
// is at most maxBytes. A sub-operation too large for any frame gets one
// of its own, which the client then refuses.
func splitPuts(subs []service.PutSub, app string, maxBytes int) [][]service.PutSub {
	// An empty batch frame: the envelope plus the sub-op count. Each
	// sub-op adds its length-prefixed encoding.
	empty := len(service.EncodeRequest(&service.Request{
		Type: service.MsgMultiPut, App: app, Value: service.EncodePutSubs(nil),
	}))
	var frames [][]service.PutSub
	start, size := 0, empty
	for i, s := range subs {
		n := len(service.EncodePutSubs([]service.PutSub{s})) - len(service.EncodePutSubs(nil))
		if i > start && (i-start == service.MaxBatch || size+n > maxBytes) {
			frames = append(frames, subs[start:i])
			start, size = i, empty
		}
		size += n
	}
	if start < len(subs) {
		frames = append(frames, subs[start:])
	}
	return frames
}

type runConfig struct {
	rate     float64
	duration time.Duration
	warmup   time.Duration
	batch    int
	dist     workload.Distribution
	putRatio float64
	seed     int64
	// targets mirrors the dial order: conn i talks to targets[i%len].
	targets []string
}

// dispatch is one wire frame's worth of work: cfg.batch consecutive
// arrivals bound to one connection, dispatched at the intended time of
// the frame's first arrival.
type dispatch struct {
	conn   *service.Client
	keys   []vec.Vector
	put    bool
	warm   bool
	target time.Time
	// tgt indexes runConfig.targets: which peer this frame went to.
	tgt int
}

type counters struct {
	ops, puts, hits, errors, warmOps atomic.Int64
	outstanding, peakOutstanding     atomic.Int64
}

// targetCounters aggregates one mesh peer's share of the run.
type targetCounters struct {
	ops, hits, errors atomic.Int64
}

func run(conns []*service.Client, pools [][]vec.Vector, cfg runConfig) *report {
	kt := feature.Downsample{}.Name()
	rng := rand.New(rand.NewSource(cfg.seed))
	// Precompute enough popularity-distributed key indices for the whole
	// run so the dispatch loop does no random-number work.
	perPool := len(pools[0])
	total := int(cfg.rate*(cfg.duration+cfg.warmup).Seconds()) + 2*cfg.batch
	seq := workload.Sequence(cfg.dist, perPool, total, rng)

	var (
		cnt     counters
		perTgt  = make([]targetCounters, len(cfg.targets))
		mu      sync.Mutex
		lats    []time.Duration
		tgtLats = make([][]time.Duration, len(cfg.targets))
		wg      sync.WaitGroup
	)
	execute := func(d dispatch) {
		defer wg.Done()
		defer cnt.outstanding.Add(-1)
		var errs, hits int
		if d.put {
			errs = doPut(d, kt)
		} else {
			errs, hits = doLookup(d, kt)
		}
		lat := time.Since(d.target) // from intended arrival: open-loop
		n := int64(len(d.keys))
		cnt.errors.Add(int64(errs))
		perTgt[d.tgt].errors.Add(int64(errs))
		if d.warm {
			cnt.warmOps.Add(n)
			return
		}
		cnt.ops.Add(n)
		cnt.hits.Add(int64(hits))
		perTgt[d.tgt].ops.Add(n)
		perTgt[d.tgt].hits.Add(int64(hits))
		if d.put {
			cnt.puts.Add(n)
		}
		mu.Lock()
		for i := 0; i < len(d.keys); i++ {
			lats = append(lats, lat)
			tgtLats[d.tgt] = append(tgtLats[d.tgt], lat)
		}
		mu.Unlock()
	}

	interval := time.Duration(float64(cfg.batch) / cfg.rate * float64(time.Second))
	start := time.Now()
	warmUntil := start.Add(cfg.warmup)
	end := warmUntil.Add(cfg.duration)
	log.Printf("potluck-loadgen: offered %.0f ops/s, batch %d (one frame per %v), %d conns, warm %v, run %v",
		cfg.rate, cfg.batch, interval, len(conns), cfg.warmup, cfg.duration)

	next := 0 // cursor into seq
	for i := 0; ; i++ {
		target := start.Add(time.Duration(i) * interval)
		if !target.Before(end) {
			break
		}
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		// Connections are dev-major (dev0-app0, dev0-app1, ...), so the
		// device — and with it the key pool — is the conn index over apps.
		ci := i % len(conns)
		conn := conns[ci]
		pool := pools[ci/(len(conns)/len(pools))]
		ks := make([]vec.Vector, cfg.batch)
		for j := range ks {
			ks[j] = pool[seq[(next+j)%len(seq)]]
		}
		next += cfg.batch
		d := dispatch{
			conn:   conn,
			keys:   ks,
			put:    rng.Float64() < cfg.putRatio,
			warm:   target.Before(warmUntil),
			target: target,
			tgt:    ci % len(cfg.targets),
		}
		out := cnt.outstanding.Add(1)
		for {
			peak := cnt.peakOutstanding.Load()
			if out <= peak || cnt.peakOutstanding.CompareAndSwap(peak, out) {
				break
			}
		}
		wg.Add(1)
		go execute(d)
	}
	wg.Wait()
	elapsed := time.Since(warmUntil)

	r := &report{
		Ops:              cnt.ops.Load(),
		Puts:             cnt.puts.Load(),
		Hits:             cnt.hits.Load(),
		Errors:           cnt.errors.Load(),
		WarmupOps:        cnt.warmOps.Load(),
		PeakOutstanding:  cnt.peakOutstanding.Load(),
		ElapsedSec:       elapsed.Seconds(),
		OfferedOpsPerSec: cfg.rate,
	}
	if elapsed > 0 {
		r.ThroughputOpsPerSec = float64(r.Ops) / elapsed.Seconds()
	}
	if looks := r.Ops - r.Puts; looks > 0 {
		r.HitRate = float64(r.Hits) / float64(looks)
	}
	r.Latency = percentiles(lats)
	for ti, tgt := range cfg.targets {
		tr := targetReport{
			Addr:    tgt,
			Ops:     perTgt[ti].ops.Load(),
			Hits:    perTgt[ti].hits.Load(),
			Errors:  perTgt[ti].errors.Load(),
			Latency: percentiles(tgtLats[ti]),
		}
		if elapsed > 0 {
			tr.ThroughputOpsPerSec = float64(tr.Ops) / elapsed.Seconds()
		}
		if tr.Ops > 0 {
			tr.HitRate = float64(tr.Hits) / float64(tr.Ops)
		}
		r.Targets = append(r.Targets, tr)
	}
	return r
}

// doLookup issues one wire frame of lookups and returns (errors, hits).
func doLookup(d dispatch, kt string) (errs, hits int) {
	if len(d.keys) == 1 {
		res, err := d.conn.Lookup(function, kt, d.keys[0])
		if err != nil {
			return 1, 0
		}
		if res.Hit {
			return 0, 1
		}
		return 0, 0
	}
	subs := make([]service.LookupSub, len(d.keys))
	for i, k := range d.keys {
		subs[i] = service.LookupSub{Function: function, KeyType: kt, Key: k}
	}
	res, err := d.conn.MultiLookup(subs)
	if err != nil {
		return len(d.keys), 0
	}
	for _, r := range res {
		switch {
		case r.Err != nil:
			errs++
		case r.Hit:
			hits++
		}
	}
	return errs, hits
}

// doPut issues one wire frame of puts and returns the error count.
func doPut(d dispatch, kt string) (errs int) {
	if len(d.keys) == 1 {
		if _, err := d.conn.Put(function, map[string]vec.Vector{kt: d.keys[0]},
			[]byte("refreshed"), service.PutOptions{Cost: 10 * time.Millisecond}); err != nil {
			return 1
		}
		return 0
	}
	subs := make([]service.PutSub, len(d.keys))
	for i, k := range d.keys {
		subs[i] = service.PutSub{
			Function: function,
			Keys:     map[string]vec.Vector{kt: k},
			Value:    []byte("refreshed"),
			Cost:     int64(10 * time.Millisecond),
		}
	}
	res, err := d.conn.MultiPut(subs)
	if err != nil {
		return len(d.keys)
	}
	for _, r := range res {
		if r.Err != nil {
			errs++
		}
	}
	return errs
}

type latencyMs struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

func percentiles(lats []time.Duration) latencyMs {
	if len(lats) == 0 {
		return latencyMs{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	return latencyMs{
		P50: at(0.50), P90: at(0.90), P99: at(0.99), P999: at(0.999),
		Max: float64(lats[len(lats)-1]) / float64(time.Millisecond),
	}
}

// reportConfig is the effective workload configuration, complete enough
// to re-run the exact same load on another host.
type reportConfig struct {
	Rate        float64  `json:"rate"`
	DurationSec float64  `json:"duration_sec"`
	WarmupSec   float64  `json:"warmup_sec"`
	Devices     int      `json:"devices"`
	Apps        int      `json:"apps"`
	Batch       int      `json:"batch"`
	Keys        int      `json:"keys"`
	Dist        string   `json:"dist"`
	PutRatio    float64  `json:"put_ratio"`
	Seed        int64    `json:"seed"`
	SLOMs       float64  `json:"slo_ms"`
	Network     string   `json:"network"`
	Targets     []string `json:"targets"`
}

// reportEnv records the build and host the numbers came from, so a
// BENCH_core.json splice is attributable across machines.
type reportEnv struct {
	GitRevision string `json:"git_revision"`
	GitDirty    bool   `json:"git_dirty"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

// serverReport is one target daemon's own counters, scraped over the
// wire protocol when the run ends. These are server-lifetime totals
// (seeding included), not a warmup-excluded window like the client-side
// numbers — the two views answer different questions.
type serverReport struct {
	Addr            string  `json:"addr"`
	Hits            int64   `json:"hits"`
	Misses          int64   `json:"misses"`
	Dropouts        int64   `json:"dropouts"`
	HitRate         float64 `json:"hit_rate"`
	Puts            int64   `json:"puts"`
	Evictions       int64   `json:"evictions"`
	Expirations     int64   `json:"expirations"`
	Entries         int64   `json:"entries"`
	Bytes           int64   `json:"bytes"`
	SavedComputeSec float64 `json:"saved_compute_sec"`
	Err             string  `json:"err,omitempty"`
}

// targetReport is one mesh peer's share of the run.
type targetReport struct {
	Addr                string    `json:"addr"`
	Ops                 int64     `json:"ops"`
	Hits                int64     `json:"hits"`
	HitRate             float64   `json:"hit_rate"`
	Errors              int64     `json:"errors"`
	ThroughputOpsPerSec float64   `json:"throughput_ops_per_sec"`
	Latency             latencyMs `json:"latency_ms"`
}

type report struct {
	Config              reportConfig   `json:"config"`
	Env                 reportEnv      `json:"env"`
	Ops                 int64          `json:"ops"`
	Puts                int64          `json:"puts"`
	Hits                int64          `json:"hits"`
	HitRate             float64        `json:"hit_rate"`
	Errors              int64          `json:"errors"`
	WarmupOps           int64          `json:"warmup_ops"`
	PeakOutstanding     int64          `json:"peak_outstanding"`
	ElapsedSec          float64        `json:"elapsed_sec"`
	OfferedOpsPerSec    float64        `json:"offered_ops_per_sec"`
	ThroughputOpsPerSec float64        `json:"throughput_ops_per_sec"`
	Latency             latencyMs      `json:"latency_ms"`
	SLOMs               float64        `json:"slo_ms"`
	SLOMet              bool           `json:"slo_met"`
	Targets             []targetReport `json:"targets"`
	Servers             []serverReport `json:"servers"`
}
