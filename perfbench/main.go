// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time on inputs it builds from a seed, checks
// every result against answers derived from the generating permutation
// (see oracle.go), and prints as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of the workload;
// with -trace 1 the run records spans around its calls into each layer
// and reports the per-layer metrics instead (see README.md). run.sh
// builds this command and cmd/listrankd from the tree and runs it:
//
//	bash perfbench/run.sh --workload rank-huge --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric. The tables below are the
// benchmark's contract with BENCHMARK.json; the package test checks
// that the two agree.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rank_ns_per_vertex", "ns", "lower"},
	{"scan_ns_per_vertex", "ns", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
}

var perLayer = []metricDef{
	{"serial.rank_ns_per_vertex", "ns", "lower"},
	{"kernel.stream_ns_per_elem", "ns", "lower"},
	{"kernel.seqscan_ns_per_elem", "ns", "lower"},
	{"core.links_per_vertex", "link/vertex", "lower"},
	{"core.sublists", "count", "lower"},
	{"core.phase2_len", "count", "lower"},
	{"engine.rank_p1_ns_per_vertex", "ns", "lower"},
	{"engine.scan_p1_ns_per_vertex", "ns", "lower"},
	{"engine.alloc_bytes_per_op", "B", "lower"},
	{"engine.small_us_p50", "us", "lower"},
	{"segment.rank_ns_per_vertex", "ns", "lower"},
	{"server.latency_p50_us", "us", "lower"},
	{"server.latency_p99_us", "us", "lower"},
	{"server.requests_per_dispatch", "count", "higher"},
	{"reorder.hits", "1/kreq", "higher"},
	{"reorder.misses", "1/kreq", "lower"},
	{"reorder.builds", "1/kreq", "lower"},
	{"reorder.evictions", "1/kreq", "lower"},
	{"reorder.hit_us_p50", "us", "lower"},
	{"reorder.miss_us_p50", "us", "lower"},
	{"wire.decode_ns_per_req", "ns", "lower"},
	{"wire.encode_ns_per_req", "ns", "lower"},
	{"wire.bytes_per_req", "B", "lower"},
	{"daemon.overhead_us_p50", "us", "lower"},
	{"daemon.cpu_us_per_req", "us", "lower"},
	{"client.cpu_us_per_req", "us", "lower"},
	{"trace.untraced_p50_us", "us", "lower"},
	{"trace.traced_p50_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// workloadNames lists the workloads in the order a traced run measures
// their layers (the traced workload itself goes first).
var workloadNames = []string{"rank-huge", "serve-small", "serve-repeat"}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// quick shrinks every input to toy size and sets up once; the
	// package test runs it.
	quick   bool
	daemon  string // path of the listrankd binary
	workdir string // where daemon logs and span files go
}

// workload is one of the benchmark's workloads, driving the program
// through its public entry points.
type workload interface {
	// start constructs the program and warms it, returning the set-up
	// time (the benchmark's own input generation is not in it).
	start(ctx context.Context) (time.Duration, error)
	// measure drives the workload's traffic for d. tr is nil for an
	// untraced window.
	measure(ctx context.Context, d time.Duration, tr *tracer) (window, error)
	// layers runs the workload's per-layer probes under tr and adds
	// their metrics to m; traced is the window measured under tr.
	layers(ctx context.Context, tr *tracer, traced window, m map[string]float64) error
	// stop shuts the program down and checks its end-of-run
	// properties. It is safe to call more than once.
	stop() error
}

// bench is one run: its configuration and its tally of operations.
type bench struct {
	cfg config
	// afterOpen, when set, sees each workload once its inputs are
	// built; the package test uses it to corrupt an expected answer.
	afterOpen func(workload)

	mu        sync.Mutex
	attempted int64
	failed    int64
	broken    []error // property checks that failed
}

// op records one checked operation.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", err)
		}
	}
}

// property records the outcome of a property check.
func (b *bench) property(err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: PROPERTY FAILED: %v\n", err)
	b.mu.Lock()
	b.broken = append(b.broken, err)
	b.mu.Unlock()
}

func (b *bench) open(name string) (workload, error) {
	switch name {
	case "rank-huge":
		return newRankHuge(b), nil
	case "serve-small":
		return newServeSmall(b), nil
	case "serve-repeat":
		return newServeRepeat(b), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// setups is how many times an untraced run sets the program up; the
// reported setup_s is their median. rank-huge's set-up ranks 2^24
// vertices cold, so it repeats fewer times than the serve workloads'.
func (b *bench) setups() int {
	switch {
	case b.cfg.quick:
		return 1
	case b.cfg.workload == "rank-huge":
		return 3
	}
	return 5
}

// session opens a workload, hands it to fn and stops it on every path.
func (b *bench) session(name string, fn func(w workload) error) error {
	w, err := b.open(name)
	if err != nil {
		return err
	}
	if b.afterOpen != nil {
		b.afterOpen(w)
	}
	defer func() {
		b.property(w.stop())
		runtime.GC()
		debug.FreeOSMemory()
	}()
	return fn(w)
}

// run executes the configured run and returns its metrics.
func run(ctx context.Context, b *bench) (map[string]float64, error) {
	cfg := b.cfg
	dur := time.Duration(cfg.seconds * float64(time.Second))
	m := make(map[string]float64)
	if !cfg.trace {
		err := b.session(cfg.workload, func(w workload) error {
			var setups []time.Duration
			for i := 0; i < b.setups(); i++ {
				if i > 0 {
					b.property(w.stop())
				}
				d, err := w.start(ctx)
				if err != nil {
					return err
				}
				setups = append(setups, d)
			}
			runtime.GC()
			win, err := w.measure(ctx, dur, nil)
			if err != nil {
				return err
			}
			m["setup_s"] = median(seconds(setups))
			endToEndMetrics(m, win)
			summarize(cfg.workload, "untraced", win)
			return nil
		})
		return m, err
	}

	// A traced run measures the traced workload untraced and traced,
	// for the tracing overhead, then measures the other workloads'
	// traffic and every layer's probes under the tracer.
	tr := newTracer()
	part := dur / 4
	order := []string{cfg.workload}
	for _, name := range workloadNames {
		if name != cfg.workload {
			order = append(order, name)
		}
	}
	for _, name := range order {
		err := b.session(name, func(w workload) error {
			if _, err := w.start(ctx); err != nil {
				return err
			}
			runtime.GC()
			if name != cfg.workload {
				tw, err := w.measure(ctx, part, tr)
				if err != nil {
					return err
				}
				summarize(name, "traced", tw)
				return w.layers(ctx, tr, tw, m)
			}
			// The traced workload alternates untraced and traced halves,
			// so neither side alone takes the warm-up after set-up.
			var un, all, tw window
			for i := 0; i < 2; i++ {
				u, err := w.measure(ctx, part/2, nil)
				if err != nil {
					return err
				}
				summarize(name, "untraced", u)
				if tw, err = w.measure(ctx, part/2, tr); err != nil {
					return err
				}
				summarize(name, "traced", tw)
				un.samples = append(un.samples, u.samples...)
				all.samples = append(all.samples, tw.samples...)
			}
			u, t := un.latQuantileUs(0.5), all.latQuantileUs(0.5)
			m["trace.untraced_p50_us"] = u
			m["trace.traced_p50_us"] = t
			m["trace.overhead_ratio"] = t / u
			return w.layers(ctx, tr, tw, m)
		})
		if err != nil {
			return m, err
		}
	}
	if cfg.workdir != "" {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s.tsv", cfg.workload))
		if err := tr.write(path); err != nil {
			return m, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	return m, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report assembles the result line, requiring exactly the metrics of
// the mode's table.
func (b *bench) report(m map[string]float64) (result, error) {
	defs := endToEnd
	if b.cfg.trace {
		defs = perLayer
	}
	res := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0 && len(b.broken) == 0 && b.attempted > 0
	return res, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: rank-huge, serve-small or serve-repeat")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "toy input sizes and a single set-up")
	flag.StringVar(&cfg.daemon, "daemon", "", "path of the listrankd binary (serve-small)")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for daemon logs and span files")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.workload == "" || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	if cfg.workdir != "" {
		if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{cfg: cfg}
	m, err := run(ctx, b)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			err = errors.New("interrupted")
		}
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := b.report(m)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
