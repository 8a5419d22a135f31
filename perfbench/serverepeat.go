package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"listrank"
	"listrank/internal/kernel"
)

// serveRepeat drives an in-process Server with default options through
// 64 registered Handles over lists of 2^16–2^18 vertices, picked
// Zipf(1.1), 30% scans, from two closed-loop client goroutines. About
// 2% of requests are followed by Handle.Invalidate. The working set is
// a few times the reorder budget's share for its shard, so the cache
// hits, misses, rebuilds and evicts, and a miss runs the lane kernels on
// a mid-size list.
type serveRepeat struct {
	b     *bench
	probs []*problem
	pop   zipf
	order []int // popularity rank → handle index
	maxN  int

	srv       *listrank.Server
	handles   []*listrank.Handle
	completed atomic.Int64 // requests the current server served

	winStats [2]listrank.ServerStats // counters around the last window
}

const (
	repeatHandles    = 64
	repeatZipf       = 1.1
	repeatInvalidate = 0.02
)

func newServeRepeat(b *bench) *serveRepeat {
	w := &serveRepeat{b: b, pop: newZipf(repeatZipf, repeatHandles)}
	r := newRNG(b.cfg.seed, "serve-repeat/lists")
	lo, hi := 16.0, 18.0 // log2 of the size range
	if b.cfg.quick {
		lo, hi = 8, 10
	}
	// Handle i's size is drawn log-uniformly from the i-th stratum of
	// the range. Popularity rank k goes to handle bitrev(k)+32 (mod 64),
	// so the hot handles always span small, middle and large sizes.
	for i := 0; i < repeatHandles; i++ {
		n := int(math.Exp2(lo + (hi-lo)*stratum(r, i, repeatHandles)))
		w.probs = append(w.probs, newProblem(r, n))
		w.maxN = max(w.maxN, n)
	}
	w.order = make([]int, repeatHandles)
	for k := range w.order {
		w.order[k] = (int(bits.Reverse8(uint8(k))>>2) + repeatHandles/2) % repeatHandles
	}
	return w
}

// repeatReq is one request of a client's sequence.
type repeatReq struct {
	h          int
	op         listrank.Op
	invalidate bool
}

type repeatSeq struct {
	w *serveRepeat
	r *rng
}

func (w *serveRepeat) seq(client int) *repeatSeq {
	return &repeatSeq{w: w, r: newRNG(w.b.cfg.seed, fmt.Sprintf("serve-repeat/client/%d", client))}
}

func (s *repeatSeq) next() repeatReq {
	q := repeatReq{h: s.w.order[s.w.pop.draw(s.r)], op: listrank.OpRank}
	if s.r.float() < scanShare {
		q.op = listrank.OpScan
	}
	q.invalidate = s.r.float() < repeatInvalidate
	return q
}

// serve submits one request and waits for it, returning its latency;
// the result is checked afterwards, outside the latency.
func (w *serveRepeat) serve(q repeatReq, dst []int64) (time.Duration, error) {
	p := w.probs[q.h]
	out := dst[:p.n()]
	poison(out)
	s := time.Now()
	_, err := w.srv.Submit(listrank.Request{Op: q.op, Handle: w.handles[q.h], Dst: out}).Wait()
	lat := time.Since(s)
	if err != nil {
		return lat, err
	}
	w.completed.Add(1)
	return lat, check(p, q.op, out)
}

// start times NewServer, registering every list, and one rank per
// handle.
func (w *serveRepeat) start(ctx context.Context) (time.Duration, error) {
	dst := make([]int64, w.maxN)
	t0 := time.Now()
	w.srv = listrank.NewServer(listrank.ServerOptions{})
	w.handles = w.handles[:0]
	for _, p := range w.probs {
		w.handles = append(w.handles, w.srv.Register(&p.list))
	}
	w.completed.Store(0)
	elapsed := time.Since(t0)
	for h := range w.handles {
		lat, err := w.serve(repeatReq{h: h, op: listrank.OpRank}, dst)
		elapsed += lat
		w.b.op(err)
	}
	return elapsed, ctx.Err()
}

// measure runs two closed-loop clients until d has passed.
func (w *serveRepeat) measure(ctx context.Context, d time.Duration, tr *tracer) (window, error) {
	w.winStats[0] = w.srv.Stats()
	t0 := time.Now()
	end := t0.Add(d)
	parts := make([][]sample, 2)
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lg := tr.log()
			seq := w.seq(k)
			dst := make([]int64, w.maxN)
			for time.Now().Before(end) && ctx.Err() == nil {
				q := seq.next()
				n := w.probs[q.h].n()
				root := lg.begin()
				lat, err := w.serve(q, dst)
				lg.end(root, "repeat.request", 0, 0, n)
				w.b.op(err)
				if q.invalidate {
					s := lg.begin()
					w.handles[q.h].Invalidate()
					lg.end(s, "handle.invalidate", root.id, root.id, n)
				}
				parts[k] = append(parts[k], opSample(time.Since(t0), lat, q.op, n))
			}
		}(k)
	}
	wg.Wait()
	win := mergeWindow(time.Since(t0), parts)
	w.winStats[1] = w.srv.Stats()
	s0, s1 := w.winStats[0], w.winStats[1]
	fmt.Fprintf(os.Stderr, "perfbench: serve-repeat reorder cache: %d hits, %d misses, %d builds, %d evictions\n",
		s1.ReorderHits-s0.ReorderHits, s1.ReorderMisses-s0.ReorderMisses, s1.ReorderBuilds-s0.ReorderBuilds, s1.ReorderEvictions-s0.ReorderEvictions)
	return win, ctx.Err()
}

// layers reports the reorder cache's counters over the traced window,
// times hits and misses apart on a single client (whose requests the
// counters can attribute one by one), and times the sequential scan
// kernel a hit runs on layouts of the workload's lists.
func (w *serveRepeat) layers(ctx context.Context, tr *tracer, _ window, m map[string]float64) error {
	// Per thousand requests served in the window, so that windows of
	// any length compare.
	s0, s1 := w.winStats[0], w.winStats[1]
	perK := 1000 / float64(s1.Served-s0.Served)
	m["reorder.hits"] = float64(s1.ReorderHits-s0.ReorderHits) * perK
	m["reorder.misses"] = float64(s1.ReorderMisses-s0.ReorderMisses) * perK
	m["reorder.builds"] = float64(s1.ReorderBuilds-s0.ReorderBuilds) * perK
	m["reorder.evictions"] = float64(s1.ReorderEvictions-s0.ReorderEvictions) * perK

	probe := 2 * time.Second
	if w.b.cfg.quick {
		probe = 200 * time.Millisecond
	}
	lg := tr.log()
	seq := w.seq(0)
	dst := make([]int64, w.maxN)
	for end := time.Now().Add(probe); time.Now().Before(end) && ctx.Err() == nil; {
		q := seq.next()
		before := w.srv.Stats().ReorderHits
		s := lg.begin()
		_, err := w.serve(q, dst)
		name := "reorder.miss"
		if w.srv.Stats().ReorderHits > before {
			name = "reorder.hit"
		}
		lg.end(s, name, 0, 0, w.probs[q.h].n())
		w.b.op(err)
		if q.invalidate {
			w.handles[q.h].Invalidate()
		}
	}
	m["reorder.hit_us_p50"] = quantile(micros(tr.durations("reorder.hit")), 0.5)
	m["reorder.miss_us_p50"] = quantile(micros(tr.durations("reorder.miss")), 0.5)

	// internal/kernel: SeqScanAdd on each list's layout (values in list
	// order, position → vertex), built from the oracle's ranks.
	perm := make([]int64, w.maxN)
	vals := make([]int64, w.maxN)
	for _, p := range w.probs {
		n := p.n()
		for v, r := range p.rank {
			perm[r] = int64(v)
		}
		for r := 0; r < n; r++ {
			vals[r] = p.list.Value[perm[r]]
		}
		out := dst[:n]
		for i := 0; i < 2; i++ {
			poison(out)
			s := lg.begin()
			kernel.SeqScanAdd(out, vals[:n], perm[:n])
			lg.end(s, "kernel.seqscan", 0, 0, n)
			w.b.op(checkScan(p, out))
		}
	}
	m["kernel.seqscan_ns_per_elem"] = tr.nsPerUnit("kernel.seqscan")
	return ctx.Err()
}

// stop closes the server and checks its books: the accounting identity,
// one served request per request the benchmark completed, and one
// reorder hit or miss per served handle request.
func (w *serveRepeat) stop() error {
	if w.srv == nil {
		return nil
	}
	w.srv.Close()
	st := w.srv.Stats()
	w.srv = nil
	return errors.Join(checkIdentity(st), checkServed(st, w.completed.Load(), true))
}
