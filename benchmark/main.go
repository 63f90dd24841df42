// Command potbench is the Potluck benchmark. It launches a real
// potluckd, drives it over at most nproc connections with one of three
// seeded workloads, checks every reply, and prints each metric by name
// with its unit; the last line of standard output is the result object.
// See README.md in this directory for the workloads and metrics.
//
// Usage (from the root of a checkout, normally through run.sh):
//
//	potbench -potluckd .bench_build/potluckd -work .bench_build \
//	         --workload lookup-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// runs the workload twice, untraced and traced, then replays the traced
// operations against an in-process stack and reports per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	potluckd string
	work     string
}

var workloads = map[string]func() workload{
	"lookup-hot":       func() workload { return &lookupHot{} },
	"churn-evict":      func() workload { return &churnEvict{} },
	"apps-recognition": func() workload { return &appsRecognition{} },
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: lookup-hot, churn-evict or apps-recognition")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.potluckd, "potluckd", ".bench_build/potluckd", "potluckd binary to launch")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for sockets, data directories, logs and span files")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "potbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) error {
	mk, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	want, err := declaredMetrics("BENCHMARK.json", o.trace == 1)
	if err != nil {
		return err
	}
	env := hostEnv()
	fmt.Printf("env: %s\n", env)

	w := mk()
	t0 := time.Now()
	if err := w.prepare(o.seed); err != nil {
		return fmt.Errorf("prepare inputs: %w", err)
	}
	fmt.Printf("inputs prepared from seed %d in %.2fs (not part of setup_s)\n", o.seed, time.Since(t0).Seconds())
	var ids atomic.Uint64
	_, plain, err := runPass(w, o, false, &ids)
	if err != nil {
		return err
	}
	e2e := endToEnd(plain)
	attempted, failed, _, _, firstFail := plain.counts()
	printEndToEnd(o.workload, plain, e2e)
	if firstFail != "" {
		fmt.Printf("first failed operation: %s\n", firstFail)
	}
	metrics := e2e
	if o.trace == 1 {
		metrics, err = tracedRun(w, o, plain, e2e, &ids)
		if err != nil {
			return err
		}
	}
	if err := checkDeclared(metrics, want); err != nil {
		return err
	}
	b, err := json.Marshal(result{Correct: true, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// declaredMetrics reads the metric names BENCHMARK.json declares for
// this mode, so a metric the benchmark fails to produce is an error
// rather than a silent gap.
func declaredMetrics(path string, perLayer bool) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read the metric declarations: %w", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := decl.EndToEnd
	if perLayer {
		list = decl.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s declares no metrics for this mode", path)
	}
	return out, nil
}

// checkDeclared fails unless the measured metrics are exactly the
// declared ones, with the declared units.
func checkDeclared(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s is declared but was not measured", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s was measured but is not declared", name)
		}
	}
	return nil
}
