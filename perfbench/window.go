package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"listrank"
)

// sample is one measured operation: a request, or a rank-huge round.
type sample struct {
	at  time.Duration // completion, since the window began
	lat time.Duration
	// rank and scan are the parts of lat spent ranking and scanning n
	// vertices (a request does one of the two, a round both).
	rank, scan time.Duration
	n          int
}

// opSample is a single rank or scan of n vertices completing at at.
func opSample(at, lat time.Duration, op listrank.Op, n int) sample {
	s := sample{at: at, lat: lat, n: n}
	if op == listrank.OpScan {
		s.scan = lat
	} else {
		s.rank = lat
	}
	return s
}

// window is what one measured interval of a workload produced.
type window struct {
	// wall is the time the operations took: the whole interval for the
	// serve workloads, the sum of the rounds for rank-huge.
	wall    time.Duration
	samples []sample // in completion order
}

// mergeWindow joins the samples of concurrent clients in completion
// order.
func mergeWindow(wall time.Duration, parts [][]sample) window {
	win := window{wall: wall}
	for _, p := range parts {
		win.samples = append(win.samples, p...)
	}
	sort.Slice(win.samples, func(i, j int) bool { return win.samples[i].at < win.samples[j].at })
	return win
}

// slices is how many equal-count slices a window's figures are taken
// over.
const slices = 5

// sliced computes f over slices consecutive runs of samples with equal
// counts (the last takes the remainder), each with the time it spanned,
// and returns the median: a burst of interference from the host moves
// one slice's figure, not the reported one.
func (w window) sliced(f func(ss []sample, span time.Duration) float64) float64 {
	k := min(slices, len(w.samples))
	var figs []float64
	var prev time.Duration
	for i := 0; i < k; i++ {
		ss := w.samples[i*len(w.samples)/k : (i+1)*len(w.samples)/k]
		end := ss[len(ss)-1].at
		if fig := f(ss, end-prev); !math.IsNaN(fig) {
			figs = append(figs, fig)
		}
		prev = end
	}
	return median(figs)
}

func latQuantile(q float64) func([]sample, time.Duration) float64 {
	return func(ss []sample, _ time.Duration) float64 {
		lat := make([]float64, len(ss))
		for i, s := range ss {
			lat[i] = float64(s.lat) / 1e3
		}
		return quantile(lat, q)
	}
}

// perVertex is the time the slice's ranks (or scans) took over the
// vertices they covered.
func perVertex(scan bool) func([]sample, time.Duration) float64 {
	return func(ss []sample, _ time.Duration) float64 {
		var d time.Duration
		var n int
		for _, s := range ss {
			t := s.rank
			if scan {
				t = s.scan
			}
			if t > 0 {
				d += t
				n += s.n
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return float64(d) / float64(n)
	}
}

// latQuantileUs is the q-quantile of all the window's latencies in µs.
func (w window) latQuantileUs(q float64) float64 { return latQuantile(q)(w.samples, 0) }

// p50us is the window's median latency in µs.
func (w window) p50us() float64 { return w.sliced(latQuantile(0.5)) }

// endToEndMetrics derives the run's end-to-end metrics (all but
// setup_s) from a window.
func endToEndMetrics(m map[string]float64, w window) {
	m["rank_ns_per_vertex"] = w.sliced(perVertex(false))
	m["scan_ns_per_vertex"] = w.sliced(perVertex(true))
	m["throughput_rps"] = w.sliced(func(ss []sample, span time.Duration) float64 {
		return float64(len(ss)) / span.Seconds()
	})
	m["latency_p50_us"] = w.p50us()
	m["latency_p99_us"] = w.sliced(latQuantile(0.99))
}

// summarize states a window's sample counts and headline figures on
// standard error.
func summarize(name, mode string, w window) {
	var ranks, scans int
	for _, s := range w.samples {
		if s.rank > 0 {
			ranks++
		}
		if s.scan > 0 {
			scans++
		}
	}
	lat := make([]float64, len(w.samples))
	for i, s := range w.samples {
		lat[i] = float64(s.lat) / 1e3
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d operations (%d ranks, %d scans) in %.2fs over %d slices; whole-window p50 %.1fus p99 %.1fus\n",
		name, mode, len(w.samples), ranks, scans, w.wall.Seconds(), min(slices, len(w.samples)),
		quantile(lat, 0.5), quantile(lat, 0.99))
}
