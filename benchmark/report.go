package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// hostEnv describes the host and the build, printed with every result.
func hostEnv() string {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"revision":   revision(),
	}
	b, _ := json.Marshal(env)
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the git revision the benchmark was built from, or, in a
// checkout without git metadata, a digest of the Go sources and module
// files it was built from.
func revision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return "git:" + s.Value
			}
		}
	}
	h := sha256.New()
	root := ".."
	if _, err := os.Stat("go.mod"); err == nil {
		root = "."
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sources-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func endToEnd(o *outcome) map[string]metric {
	t := o.tally()
	attempted, failed, results, correct, _ := o.counts()
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"cpu_us_per_request": {o.cost.Seconds() * 1e6 / float64(o.costRequests), "us"},
		"hit_rate":           {ratio(t.Hits, t.Lookups), "ratio"},
		"accuracy":           {ratio(correct, results), "ratio"},
		"success_rate":       {1 - ratio(failed, attempted), "ratio"},
		"server_rss_mb":      {float64(o.rss) / (1 << 20), "MB"},
	}
}

// appLatency derives the application-visible latencies and capacity of
// a pass. They are reported, but carry no regression bound: on a shared
// host they move with the CPU the hypervisor takes (see README.md).
func appLatency(o *outcome) map[string]metric {
	req := o.dist.request.summarize()
	look := o.dist.lookup.summarize()
	return map[string]metric{
		"app.request_p50_ms":  {ms(req.P50), "ms"},
		"app.request_p99_ms":  {ms(req.P99), "ms"},
		"app.lookup_p50_ms":   {ms(look.P50), "ms"},
		"app.lookup_p99_ms":   {ms(look.P99), "ms"},
		"app.intended_p50_ms": {ms(o.dist.queued.summarize().P50), "ms"},
		"app.capacity_ops_s":  {float64(o.closed) / o.closedDur.Seconds(), "1/s"},
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printEndToEnd(name string, o *outcome, m map[string]metric) {
	loop := "closed loop"
	if o.openLoop {
		loop = "open loop"
	}
	attempted, failed, results, correct, _ := o.counts()
	t := o.tally()
	fmt.Printf("workload %s: timed window %.2fs, %d requests attempted, %d failed; host CPU stolen by the hypervisor %.1f%%\n",
		name, o.window.Seconds(), attempted, failed, 100*o.steal)
	fmt.Printf("  setup_s          %.4f s (median of %d set-ups, %.1f%% of host CPU stolen during them: %v)\n",
		m["setup_s"].Value, len(o.setups), 100*o.setupSteal, roundAll(o.setups))
	fmt.Printf("  request latency  %s [%s, from send]\n", o.dist.request.summarize().describe(), loop)
	if o.openLoop {
		fmt.Printf("  request latency  %s [open loop, from intended send time]\n", o.dist.queued.summarize().describe())
	}
	fmt.Printf("  lookup latency   %s [%s, round trip]\n", o.dist.lookup.summarize().describe(), loop)
	if len(o.dist.put) > 0 {
		fmt.Printf("  put latency      %s [%s, round trip]\n", o.dist.put.summarize().describe(), loop)
	}
	fmt.Printf("  capacity_ops_s   %.2f 1/s (%d completed in %.2fs of closed loop)\n",
		appLatency(o)["app.capacity_ops_s"].Value, o.closed, o.closedDur.Seconds())
	fmt.Printf("  cpu_us_per_request %.2f us (%.3fs of potluckd and application CPU over the %d requests of the %s phase; whole window: potluckd %.3fs, application %.3fs)\n",
		m["cpu_us_per_request"].Value, o.cost.Seconds(), o.costRequests, loop, o.daemonCPU.Seconds(), o.genCPU.Seconds())
	fmt.Printf("  hit_rate         %.4f ratio (%d hits of %d lookups, %d dropouts)\n", m["hit_rate"].Value, t.Hits, t.Lookups, t.Dropouts)
	if t.Puts > 0 {
		fmt.Printf("  writes           %.3f puts and %.3f evictions per request (%d puts, %d evictions in the daemon's Stats over the window)\n",
			float64(t.Puts)/float64(attempted), float64(o.after.Evictions-o.before.Evictions)/float64(attempted),
			t.Puts, o.after.Evictions-o.before.Evictions)
	}
	fmt.Printf("  accuracy         %.4f ratio (%d of %d results equal the native computation)\n", m["accuracy"].Value, correct, results)
	fmt.Printf("  error_rate       %.4f ratio (%d of %d failed or refused; success_rate %.4f)\n",
		ratio(failed, attempted), failed, attempted, m["success_rate"].Value)
	fmt.Printf("  server_rss_mb    %.2f MB (peak, %s)\n", m["server_rss_mb"].Value, o.rssNote)
}

func roundAll(ds []time.Duration) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Round(time.Microsecond).String()
	}
	return out
}

// spanIndex groups span durations by name.
type spanIndex map[string]latencies

func indexSpans(sets ...[]span) spanIndex {
	ix := spanIndex{}
	for _, set := range sets {
		for _, s := range set {
			ix[s.Name] = append(ix[s.Name], s.dur())
		}
	}
	return ix
}

func (ix spanIndex) of(names ...string) latencies {
	var out latencies
	for _, n := range names {
		out = append(out, ix[n]...)
	}
	return out
}

// layerSums totals span time per name over the timed requests only.
func layerSums(sets ...[]span) map[string]float64 {
	out := map[string]float64{}
	for _, set := range sets {
		for _, s := range set {
			if s.Req != 0 {
				out[s.Name] += s.dur()
			}
		}
	}
	return out
}

func sumOf(m map[string]float64, names ...string) float64 {
	var t float64
	for _, n := range names {
		t += m[n]
	}
	return t
}

var (
	serviceSpans = []string{"service.lookup", "service.put", "service.multilookup", "service.multiput"}
	coreSpans    = []string{"core.lookup", "core.put", "core.multilookup", "core.multiput"}
	storeSpans   = []string{"store.logput", "store.logdelete", "store.logregister"}
	whatifSpans  = []string{"whatif.taplookup", "whatif.tapput"}
	bareSpans    = []string{"index.search", "index.insert", "index.remove"}
)

// tracedRun runs the traced pass and the in-process replays, prints the
// per-layer budget, and returns the per-layer metrics.
func tracedRun(w workload, o options, plain *outcome, plainE2E map[string]metric, ids *atomic.Uint64) (map[string]metric, error) {
	tp, traced, err := runPass(w, o, true, ids)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	dir := filepath.Join(o.work, fmt.Sprintf("replay-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	rp, err := replay(tp, w.stack(), dir, ids)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(o, tp.tr.spans, rp.core, rp.index); err != nil {
		return nil, err
	}
	tracedE2E := endToEnd(traced)
	ix := indexSpans(tp.tr.spans, rp.core, rp.index)

	// Per-request self time of each layer, over the timed requests.
	sums := layerSums(tp.tr.spans, rp.core, rp.index)
	nreq := float64(len(ix["request"]))
	if nreq == 0 {
		return nil, fmt.Errorf("traced pass recorded no requests")
	}
	children := sumOf(sums, serviceSpans...) + sums["feature.extract"] + sums["nn.classify"]
	self := []struct {
		layer string
		ns    float64
		how   string
	}{
		{"gen", sums["request"] - children, "request span minus its children (pacing lag, sender wait, benchmark work)"},
		{"feature", sums["feature.extract"], "Extractor.Extract"},
		{"nn", sums["nn.classify"], "Classifier.Classify"},
		{"service", sumOf(sums, serviceSpans...) - sumOf(sums, coreSpans...), "client round trips minus in-process core calls [across passes]"},
		{"core", sumOf(sums, coreSpans...) - sumOf(sums, storeSpans...) - sumOf(sums, whatifSpans...) - sumOf(sums, bareSpans...),
			"core calls minus store and tap children, minus bare-index replay [across passes]"},
		{"index", sumOf(sums, bareSpans...), "bare-index replay of the same searches, inserts, removals"},
		{"store", sumOf(sums, storeSpans...), "core.Store appends on *store.Log"},
		{"whatif", sumOf(sums, whatifSpans...), "core.Tap calls on *whatif.Profiler"},
	}
	reqSum := traced.dist.request.summarize()
	var total float64
	fmt.Printf("per-layer self time, traced pass (%d timed requests):\n", int(nreq))
	out := map[string]metric{}
	for _, s := range self {
		per := s.ns / nreq
		total += per
		fmt.Printf("  %-8s %12.2f us/request  %s\n", s.layer, per/1e3, s.how)
		out["self."+s.layer+"_us"] = metric{per / 1e3, "us"}
	}
	allReq := ix["request"].summarize()
	resid := total - allReq.P50
	fmt.Printf("  sum      %12.2f us/request; traced request median %.2f us and mean %.2f us (all phases, n=%d); residual against the median %.2f us, against the mean %.2f us\n",
		total/1e3, allReq.P50/1e3, allReq.Mean/1e3, allReq.N, resid/1e3, (total-allReq.Mean)/1e3)
	out["self.residual_us"] = metric{resid / 1e3, "us"}

	plainApp, tracedApp := appLatency(plain), appLatency(traced)
	delta := func(k string) float64 { return tracedApp[k].Value - plainApp[k].Value }
	over := tracedApp["app.request_p50_ms"].Value/plainApp["app.request_p50_ms"].Value - 1
	fmt.Printf("tracing overhead (traced - untraced): request p50 %+.4f ms (%+.1f%%), request p99 %+.4f ms, capacity %+.2f 1/s, cpu per request %+.2f us\n",
		delta("app.request_p50_ms"), 100*over, delta("app.request_p99_ms"), delta("app.capacity_ops_s"),
		tracedE2E["cpu_us_per_request"].Value-plainE2E["cpu_us_per_request"].Value)
	out["trace.overhead_frac"] = metric{over, "ratio"}
	for k, v := range plainApp {
		out[k] = v
	}

	p50us := func(l latencies) float64 { return us(l.summarize().P50) }
	p99us := func(l latencies) float64 { return us(l.summarize().P99) }
	lookRTT := ix.of("service.lookup", "service.multilookup")
	putRTT := ix.of("service.put", "service.multiput")
	coreLook := ix.of("core.lookup", "core.multilookup")
	corePut := ix.of("core.put", "core.multiput")
	t := plain.tally()
	ops := float64(t.Lookups + t.Puts)
	lags := make(latencies, len(plain.lags))
	for i, l := range plain.lags {
		lags[i] = float64(l)
	}
	lag := lags.summarize()

	add := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	add("service.lookup_rtt_p50_us", p50us(lookRTT), "us")
	add("service.lookup_rtt_p99_us", p99us(lookRTT), "us")
	add("service.put_rtt_p50_us", p50us(putRTT), "us")
	add("daemon.cpu_us_per_op", plain.daemonCPU.Seconds()*1e6/ops, "us")
	add("core.lookup_p50_us", p50us(coreLook), "us")
	add("core.lookup_p99_us", p99us(coreLook), "us")
	add("index.search_p50_us", p50us(ix["index.search"]), "us")
	add("index.probes_per_search", ratio(rp.probes.Probes, rp.probes.Queries), "count")
	add("core.put_p50_us", p50us(corePut), "us")
	add("core.put_p99_us", p99us(corePut), "us")
	add("core.evictions_per_put", ratio(rp.evictions, rp.subPuts), "count")
	add("index.insert_p50_us", p50us(ix["index.insert"]), "us")
	add("index.remove_p50_us", p50us(ix["index.remove"]), "us")
	add("store.append_p50_us", p50us(ix.of(storeSpans...)), "us")
	var bytesPerPut, fsyncsPerS float64
	if rp.store != nil {
		bytesPerPut = ratio(rp.store.BytesWritten, rp.subPuts)
		fsyncsPerS = float64(rp.store.Fsyncs) / rp.wall.Seconds()
	}
	add("store.bytes_per_put", bytesPerPut, "B")
	add("store.fsyncs_per_s", fsyncsPerS, "1/s")
	add("whatif.tap_p50_ns", ix.of(whatifSpans...).summarize().P50, "ns")
	var dropped float64
	if rp.whatif != nil {
		r := rp.whatif
		dropped = ratio(int64(r.RingDrops), int64(r.SampledLookups+r.SampledPuts+r.RingDrops))
	}
	add("whatif.dropped_frac", dropped, "ratio")
	add("core.threshold", median(plain.thresholds()), "l2")
	add("core.tightenings", float64(rp.tightenings), "count")
	add("core.dropout_frac", ratio(t.Dropouts, t.Lookups), "ratio")
	add("nn.classify_p50_ms", ms(w.classifyTimes().summarize().P50), "ms")
	add("feature.extract_p50_us", us(w.extractTimes().summarize().P50), "us")
	add("gen.lag_p50_ms", ms(lag.P50), "ms")
	add("gen.lag_p99_ms", ms(lag.P99), "ms")
	add("gen.cpu_us_per_op", plain.genCPU.Seconds()*1e6/ops, "us")

	fmt.Printf("per-layer metrics (spans: %d traced pass, %d in-process core, %d bare index; service and gen from the traced/untraced client passes):\n",
		len(tp.tr.spans), len(rp.core), len(rp.index))
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, out[n].Value, out[n].Unit)
	}
	fmt.Printf("  samples: service lookups %d, service puts %d, core lookups %d, core puts %d, index searches %d, inserts %d, removes %d, store appends %d, taps %d, lags %d (%s), request p50 n=%d\n",
		len(lookRTT), len(putRTT), len(coreLook), len(corePut), len(ix["index.search"]), len(ix["index.insert"]),
		len(ix["index.remove"]), len(ix.of(storeSpans...)), len(ix.of(whatifSpans...)), lag.N, lag.describe(), reqSum.N)
	return out, nil
}

// writeSpans writes every span of the traced run as JSON lines once the
// run is over.
func writeSpans(o options, sets ...[]span) error {
	dir := filepath.Join(o.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, set := range sets {
		for _, s := range set {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
