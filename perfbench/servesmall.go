package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"listrank"
	"listrank/internal/wire"
)

// serveSmall runs cmd/listrankd with its default options as its own
// process, and one client (this process) keeps two keep-alive
// connections busy in a closed loop with anonymous frames for lists of
// 2^8–2^14 vertices, 30% of them scans. Cost here is per request:
// HTTP, codec, admission and dispatch.
type serveSmall struct {
	b     *bench
	probs []*problem
	// Per op (0 rank, 1 scan) and problem: the request frame, the whole
	// HTTP request carrying it, and the expected response frame.
	frame, req, resp [2][][]byte

	d      *daemonProc
	conns  [2]*httpConn
	served atomic.Int64 // responses this daemon process marked served

	// Figures of the last measured window, for the layer metrics.
	winReqs, winServed, winDispatches int64
	winDaemonCPU, winClientCPU        time.Duration
}

const (
	smallProblems = 64
	smallClients  = 2
	scanShare     = 0.3
)

func newServeSmall(b *bench) *serveSmall {
	w := &serveSmall{b: b}
	r := newRNG(b.cfg.seed, "serve-small/lists")
	lo, hi := 1<<8, 1<<14
	if b.cfg.quick {
		lo, hi = 1<<4, 1<<8
	}
	// Sizes are Zipf-mixed over geometric buckets [lo·2^k, lo·2^(k+1)),
	// spread uniformly inside a bucket: mostly small lists, a tail of
	// large ones. One size is drawn per stratum of the distribution.
	buckets := 0
	for s := lo; s < hi; s *= 2 {
		buckets++
	}
	z := newZipf(1.4, buckets)
	for i := 0; i < smallProblems; i++ {
		k, frac := z.at(stratum(r, i, smallProblems))
		n := lo<<k + int(frac*float64(lo<<k))
		if n > hi {
			n = hi
		}
		p := newProblem(r, n)
		w.probs = append(w.probs, p)
		for op := range w.frame {
			var vals []int64 // rank frames carry no values: the daemon decodes unit values
			path := "/rank"
			if op == 1 {
				vals, path = p.list.Value, "/scan"
			}
			f, err := wire.AppendRequest(nil, wire.Op(op), 0, p.list.Head, p.list.Next, vals)
			if err != nil {
				panic(fmt.Sprintf("encode a generated list: %v", err)) // every generated list fits the frame
			}
			w.frame[op] = append(w.frame[op], f)
			w.req[op] = append(w.req[op], httpRequest(path, f))
			w.resp[op] = append(w.resp[op], responseBytes(p, listrank.Op(op)))
		}
	}
	return w
}

// smallSeq is one client's seeded request sequence: a uniformly drawn
// problem of the set, a scan with probability scanShare.
type smallSeq struct {
	r *rng
	k int
}

func newSmallSeq(seed uint64, client int) *smallSeq {
	return &smallSeq{r: newRNG(seed, fmt.Sprintf("serve-small/client/%d", client)), k: smallProblems}
}

func (s *smallSeq) next() (int, listrank.Op) {
	i := s.r.intn(s.k)
	if s.r.float() < scanShare {
		return i, listrank.OpScan
	}
	return i, listrank.OpRank
}

// send issues one request on client k's connection and checks the
// response bytes, redialling after any failure.
func (w *serveSmall) send(k, i int, op listrank.Op) error {
	if w.conns[k] == nil {
		c, err := dial(w.d.addr)
		if err != nil {
			return err
		}
		w.conns[k] = c
	}
	body, outcome, err := w.conns[k].do(w.req[op][i])
	if outcome == "served" {
		w.served.Add(1)
	}
	if err != nil {
		w.conns[k].close()
		w.conns[k] = nil
		return err
	}
	return checkResponse(body, w.resp[op][i])
}

// start execs the daemon, waits for its address, opens the client's
// connections and sends every frame of the set once.
func (w *serveSmall) start(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(ctx, w.b.cfg.daemon, w.b.cfg.workdir)
	if err != nil {
		return 0, err
	}
	w.d = d
	w.served.Store(0)
	var checks []error
	for op := range w.req {
		for i := range w.probs {
			err := w.send(i%smallClients, i, listrank.Op(op))
			if errors.Is(err, errMismatch) {
				checks = append(checks, err) // checked, but counted after the timer
				continue
			}
			if err != nil {
				return 0, fmt.Errorf("warm-up request: %w", err)
			}
			checks = append(checks, nil)
		}
	}
	elapsed := time.Since(t0)
	for _, err := range checks {
		w.b.op(err)
	}
	return elapsed, nil
}

// measure runs the closed loop on both connections until d has passed.
// A request's latency runs from the write to a verified response.
func (w *serveSmall) measure(ctx context.Context, d time.Duration, tr *tracer) (window, error) {
	before, err := w.d.metrics()
	if err != nil {
		return window{}, err
	}
	cpu0, err := w.d.cpu()
	if err != nil {
		return window{}, err
	}
	ccpu0 := processCPU()
	t0 := time.Now()
	end := t0.Add(d)
	parts := make([][]sample, smallClients)
	var wg sync.WaitGroup
	for k := 0; k < smallClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lg := tr.log()
			seq := newSmallSeq(w.b.cfg.seed, k)
			for time.Now().Before(end) && ctx.Err() == nil {
				i, op := seq.next()
				n := w.probs[i].n()
				root := lg.begin()
				s := time.Now()
				err := w.send(k, i, op)
				lat := time.Since(s)
				lg.end(root, "client.request", 0, 0, n)
				w.b.op(err)
				parts[k] = append(parts[k], opSample(time.Since(t0), lat, op, n))
			}
		}(k)
	}
	wg.Wait()
	win := mergeWindow(time.Since(t0), parts)
	w.winClientCPU = processCPU() - ccpu0
	cpu1, err := w.d.cpu()
	if err != nil {
		return win, err
	}
	w.winDaemonCPU = cpu1 - cpu0
	after, err := w.d.metrics()
	if err != nil {
		return win, err
	}
	c0, c1 := promCounters(before), promCounters(after)
	w.winReqs = int64(len(win.samples))
	w.winServed = c1["listrank_served_total"] - c0["listrank_served_total"]
	w.winDispatches = c1["listrank_dispatches_total"] - c0["listrank_dispatches_total"]
	return win, ctx.Err()
}

// layers measures the layers a served request passes through on the
// same request sequence: the wire codec, a bare engine, and the Server
// in-process at the same concurrency; the daemon's share is what the
// end-to-end latency adds on top of the in-process server.
func (w *serveSmall) layers(ctx context.Context, tr *tracer, traced window, m map[string]float64) error {
	probe := 2 * time.Second
	if w.b.cfg.quick {
		probe = 200 * time.Millisecond
	}
	m["server.requests_per_dispatch"] = float64(w.winServed) / float64(w.winDispatches)
	m["daemon.cpu_us_per_req"] = float64(w.winDaemonCPU) / 1e3 / float64(w.winReqs)
	m["client.cpu_us_per_req"] = float64(w.winClientCPU) / 1e3 / float64(w.winReqs)

	if err := w.wireProbe(tr, probe/2); err != nil {
		return err
	}
	m["wire.decode_ns_per_req"] = tr.nsPerSpan("wire.decode")
	m["wire.encode_ns_per_req"] = tr.nsPerSpan("wire.encode")
	m["wire.bytes_per_req"] = tr.perSpan("wire.decode") + tr.perSpan("wire.encode")

	w.engineProbe(ctx, tr, probe/2)
	m["engine.small_us_p50"] = quantile(micros(tr.durations("engine.small")), 0.5)

	if err := w.serverProbe(ctx, tr, probe); err != nil {
		return err
	}
	lat := micros(tr.durations("server.request"))
	m["server.latency_p50_us"] = quantile(lat, 0.5)
	m["server.latency_p99_us"] = quantile(lat, 0.99)
	m["daemon.overhead_us_p50"] = traced.p50us() - m["server.latency_p50_us"]
	return ctx.Err()
}

// wireProbe decodes the sequence's request frames and encodes their
// responses the way the daemon does, checking both against the oracle.
func (w *serveSmall) wireProbe(tr *tracer, d time.Duration) error {
	lg := tr.log()
	seq := newSmallSeq(w.b.cfg.seed, 0)
	var wb wire.Buffer
	var rd bytes.Reader
	var out bytes.Buffer
	want := make([]int64, 0, 1<<14)
	for end := time.Now().Add(d); time.Now().Before(end); {
		i, op := seq.next()
		p := w.probs[i]
		f := w.frame[op][i]
		rd.Reset(f)
		s := lg.begin()
		h, err := wire.ReadRequest(&rd, &wb, 0)
		lg.end(s, "wire.decode", 0, 0, len(f))
		if err != nil {
			w.b.op(fmt.Errorf("decode a request frame: %w", err))
			continue
		}
		w.b.op(checkDecoded(p, op, h, &wb))

		want = want[:0]
		for v := 0; v < p.n(); v++ {
			if op == listrank.OpScan {
				want = append(want, p.scan[v])
			} else {
				want = append(want, int64(p.rank[v]))
			}
		}
		out.Reset()
		s = lg.begin()
		err = wire.WriteResponse(&out, &wb, want)
		lg.end(s, "wire.encode", 0, 0, out.Len())
		if err == nil {
			err = checkResponse(out.Bytes(), w.resp[op][i])
		}
		w.b.op(err)
	}
	return nil
}

// checkDecoded checks a decoded request against the generated list.
func checkDecoded(p *problem, op listrank.Op, h wire.ReqHeader, wb *wire.Buffer) error {
	if h.N != p.n() || int64(h.Head) != p.list.Head || h.HasValues != (op == listrank.OpScan) {
		return fmt.Errorf("%w: decoded header %+v for a %d-vertex list", errMismatch, h, p.n())
	}
	for v := 0; v < p.n(); v++ {
		want := int64(1)
		if op == listrank.OpScan {
			want = p.list.Value[v]
		}
		if wb.Next[v] != p.list.Next[v] || wb.Value[v] != want {
			return fmt.Errorf("%w: decoded vertex %d differs", errMismatch, v)
		}
	}
	return nil
}

// engineProbe runs the sequence on a warm one-worker Engine with no
// server: the floor under a served request's latency.
func (w *serveSmall) engineProbe(ctx context.Context, tr *tracer, d time.Duration) {
	lg := tr.log()
	e := listrank.NewEngine()
	opt := listrank.Options{Procs: 1}
	dst := make([]int64, 1<<14)
	call := func(i int, op listrank.Op) {
		p := w.probs[i]
		out := dst[:p.n()]
		poison(out)
		s := lg.begin()
		if op == listrank.OpScan {
			e.ScanInto(out, &p.list, opt)
		} else {
			e.RankInto(out, &p.list, opt)
		}
		lg.end(s, "engine.small", 0, 0, p.n())
		w.b.op(check(p, op, out))
	}
	for i := range w.probs { // warm the arena on every size
		p := w.probs[i]
		e.RankInto(dst[:p.n()], &p.list, opt)
	}
	seq := newSmallSeq(w.b.cfg.seed, 0)
	for end := time.Now().Add(d); time.Now().Before(end) && ctx.Err() == nil; {
		call(seq.next())
	}
}

// serverProbe sends the serve-small sequences to an in-process Server
// with default options at the same concurrency (two closed-loop
// clients, each with its own copies of the lists).
func (w *serveSmall) serverProbe(ctx context.Context, tr *tracer, d time.Duration) error {
	srv := listrank.NewServer(listrank.ServerOptions{})
	var completed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for k := 0; k < smallClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lg := tr.log()
			lists := make([]listrank.List, len(w.probs))
			for i, p := range w.probs {
				lists[i] = p.clone()
			}
			dst := make([]int64, 1<<14)
			seq := newSmallSeq(w.b.cfg.seed, k)
			done := int64(0)
			for time.Now().Before(end) && ctx.Err() == nil {
				i, op := seq.next()
				p := w.probs[i]
				out := dst[:p.n()]
				poison(out)
				s := lg.begin()
				_, err := srv.Submit(listrank.Request{Op: op, List: &lists[i], Dst: out}).Wait()
				lg.end(s, "server.request", 0, 0, p.n())
				if err == nil {
					done++
					err = check(p, op, out)
				}
				w.b.op(err)
			}
			mu.Lock()
			completed += done
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	srv.Close()
	st := srv.Stats()
	w.b.property(checkIdentity(st))
	w.b.property(checkServed(st, completed, false))
	return nil
}

// stop closes the connections, checks /metrics against the client's
// count, and checks that the daemon drains cleanly on SIGTERM.
func (w *serveSmall) stop() error {
	if w.d == nil {
		return nil
	}
	for k := range w.conns {
		w.conns[k].close()
		w.conns[k] = nil
	}
	d := w.d
	w.d = nil
	text, err := d.metrics()
	if err != nil {
		d.kill()
		return fmt.Errorf("read /metrics: %w", err)
	}
	return errors.Join(checkMetrics(text, w.served.Load()), d.terminate())
}
