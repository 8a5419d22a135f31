package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"listrank"
	"listrank/internal/core"
	"listrank/internal/kernel"
	"listrank/internal/list"
	"listrank/internal/serial"
)

// rankHuge is the paper's workload: one caller ranks and scans one
// 2^24-vertex random list with non-unit values, back to back, on a warm
// Engine at Procs = nproc. The list, its results and the engine's
// scratch are far larger than the shared L3, so every link is a memory
// round trip whatever the neighbours hold.
type rankHuge struct {
	b          *bench
	p          *problem
	procs      int
	e          *listrank.Engine
	dstR, dstS []int64
}

func newRankHuge(b *bench) *rankHuge {
	n := 1 << 24
	if b.cfg.quick {
		n = 1 << 14
	}
	return &rankHuge{
		b:     b,
		p:     newProblem(newRNG(b.cfg.seed, "rank-huge/list"), n),
		procs: runtime.NumCPU(),
		dstR:  make([]int64, n),
		dstS:  make([]int64, n),
	}
}

func (w *rankHuge) opt() listrank.Options { return listrank.Options{Procs: w.procs} }

// start times NewEngine plus the first, cold rank, then warms the scan
// path untimed.
func (w *rankHuge) start(ctx context.Context) (time.Duration, error) {
	w.e = nil
	runtime.GC()
	poison(w.dstR)
	t0 := time.Now()
	e := listrank.NewEngine()
	e.RankInto(w.dstR, &w.p.list, w.opt())
	d := time.Since(t0)
	w.b.op(checkRank(w.p, w.dstR))
	// The first scan grows the arena further; run it here so that every
	// measured round finds the engine warm.
	poison(w.dstS)
	e.ScanInto(w.dstS, &w.p.list, w.opt())
	w.b.op(checkScan(w.p, w.dstS))
	w.e = e
	return d, ctx.Err()
}

// measure runs whole rounds — one rank, then one scan — until d has
// passed. A round's latency is the two calls' wall time; the results
// are checked after it.
func (w *rankHuge) measure(ctx context.Context, d time.Duration, tr *tracer) (window, error) {
	var win window
	lg := tr.log()
	n := w.p.n()
	opt := w.opt()
	for end := time.Now().Add(d); time.Now().Before(end); {
		if err := ctx.Err(); err != nil {
			return win, err
		}
		poison(w.dstR)
		poison(w.dstS)
		round := lg.begin()
		t0 := time.Now()
		s := lg.begin()
		w.e.RankInto(w.dstR, &w.p.list, opt)
		t1 := time.Now()
		lg.end(s, "engine.rank", round.id, round.id, n)
		s = lg.begin()
		w.e.ScanInto(w.dstS, &w.p.list, opt)
		t2 := time.Now()
		lg.end(s, "engine.scan", round.id, round.id, n)
		lg.end(round, "rank-huge.round", 0, 0, 2*n)

		c := lg.begin()
		w.b.op(checkRank(w.p, w.dstR))
		w.b.op(checkScan(w.p, w.dstS))
		lg.end(c, "oracle.check", round.id, round.id, 2*n)

		win.wall += t2.Sub(t0)
		win.samples = append(win.samples, sample{at: win.wall, lat: t2.Sub(t0), rank: t1.Sub(t0), scan: t2.Sub(t1), n: n})
	}
	return win, nil
}

// layers measures the layers under the engine on the same list: the
// serial walk and the stream floor as references, the core algorithm's
// counters, the engine at one worker and its allocations, and the
// segmented ranker.
func (w *rankHuge) layers(ctx context.Context, tr *tracer, _ window, m map[string]float64) error {
	lg := tr.log()
	n := w.p.n()
	l := &w.p.list
	il := &list.List{Next: l.Next, Value: l.Value, Head: l.Head}

	// internal/serial: the one-cursor walk, the paper's workstation
	// baseline and the gather floor.
	poison(w.dstR)
	s := lg.begin()
	serial.RanksInto(w.dstR, il)
	lg.end(s, "serial.rank", 0, 0, n)
	w.b.op(checkRank(w.p, w.dstR))
	m["serial.rank_ns_per_vertex"] = tr.nsPerUnit("serial.rank")

	// internal/kernel: one streaming pass over Next. Next sums to every
	// vertex but the head, plus the tail's self-link.
	tail := w.p.list.Next[0]
	for v, r := range w.p.rank {
		if int(r) == n-1 {
			tail = int64(v)
		}
	}
	wantSum := int64(n)*int64(n-1)/2 - l.Head + tail
	for i := 0; i < 5; i++ {
		s = lg.begin()
		got := kernel.SeqSum(l.Next)
		lg.end(s, "kernel.stream", 0, 0, n)
		if got != wantSum {
			w.b.op(fmt.Errorf("%w: SeqSum(Next) = %d, want %d", errMismatch, got, wantSum))
		} else {
			w.b.op(nil)
		}
	}
	m["kernel.stream_ns_per_elem"] = tr.nsPerUnit("kernel.stream")

	// internal/core: what the sublist algorithm did on this list.
	var st core.Stats
	poison(w.dstR)
	s = lg.begin()
	core.RanksInto(w.dstR, il, core.Options{Procs: w.procs, Stats: &st}, core.NewScratch())
	lg.end(s, "core.rank", 0, 0, n)
	w.b.op(checkRank(w.p, w.dstR))
	m["core.links_per_vertex"] = float64(st.LinksTraversed) / float64(n)
	m["core.sublists"] = float64(st.Sublists)
	m["core.phase2_len"] = float64(st.Phase2Len)
	runtime.GC()
	if err := ctx.Err(); err != nil {
		return err
	}

	// listrank.Engine at one worker (after a warming pair of calls),
	// and the bytes every warm call allocates, at one worker and at
	// Procs = nproc.
	e1 := listrank.NewEngine()
	p1 := listrank.Options{Procs: 1}
	e1.RankInto(w.dstR, l, p1)
	e1.ScanInto(w.dstS, l, p1)
	var allocs uint64
	calls := 0
	measured := func(name string, dst []int64, call func()) {
		var before, after runtime.MemStats
		poison(dst)
		s := lg.begin()
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		lg.end(s, name, 0, 0, n)
		allocs += after.TotalAlloc - before.TotalAlloc
		calls++
	}
	for i := 0; i < 2; i++ {
		measured("engine.rank_p1", w.dstR, func() { e1.RankInto(w.dstR, l, p1) })
		w.b.op(checkRank(w.p, w.dstR))
		measured("engine.scan_p1", w.dstS, func() { e1.ScanInto(w.dstS, l, p1) })
		w.b.op(checkScan(w.p, w.dstS))
	}
	e1 = nil
	measured("engine.rank", w.dstR, func() { w.e.RankInto(w.dstR, l, w.opt()) })
	w.b.op(checkRank(w.p, w.dstR))
	measured("engine.scan", w.dstS, func() { w.e.ScanInto(w.dstS, l, w.opt()) })
	w.b.op(checkScan(w.p, w.dstS))
	m["engine.rank_p1_ns_per_vertex"] = tr.nsPerUnit("engine.rank_p1")
	m["engine.scan_p1_ns_per_vertex"] = tr.nsPerUnit("engine.scan_p1")
	m["engine.alloc_bytes_per_op"] = float64(allocs) / float64(calls)
	runtime.GC()
	if err := ctx.Err(); err != nil {
		return err
	}

	// internal/segment through its public entry point, one segment per
	// worker; the first call warms the pooled scratch.
	for i := 0; i < 3; i++ {
		poison(w.dstR)
		s = lg.begin()
		listrank.SegmentedRankInto(w.dstR, l, listrank.SegmentedOptions{Procs: w.procs})
		if i > 0 {
			lg.end(s, "segment.rank", 0, 0, n)
		}
		w.b.op(checkRank(w.p, w.dstR))
	}
	m["segment.rank_ns_per_vertex"] = tr.nsPerUnit("segment.rank")
	return ctx.Err()
}

func (w *rankHuge) stop() error {
	w.e = nil
	return nil
}
