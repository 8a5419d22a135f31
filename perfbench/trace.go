package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval since the
// tracer's epoch, the span that caused it (0 for a root), the request
// it served (the root span's id), and how much work it covered (n:
// vertices, elements or bytes, as the name implies).
type span struct {
	id, parent, req int64
	name            string
	start, end      time.Duration
	n               int64
}

// tracer keeps spans in memory for the length of a run and writes them
// out when it ends. Each goroutine records into its own spanLog, so the
// hot path takes no lock. A nil tracer (and its nil logs) records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	logs  []*spanLog
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanLog is one goroutine's span buffer.
type spanLog struct {
	t     *tracer
	idx   int64
	seq   int64
	spans []span
}

// spanRef is an open span: its id (so children can name it as parent)
// and start.
type spanRef struct {
	id    int64
	start time.Duration
}

// log returns a fresh span log for one goroutine.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &spanLog{t: t, idx: int64(len(t.logs) + 1)}
	t.logs = append(t.logs, l)
	return l
}

// begin opens a span.
func (l *spanLog) begin() spanRef {
	if l == nil {
		return spanRef{}
	}
	l.seq++
	return spanRef{id: l.idx<<40 | l.seq, start: time.Since(l.t.epoch)}
}

// end closes s under name. req 0 makes the span its own request root.
func (l *spanLog) end(s spanRef, name string, parent, req int64, n int) {
	if l == nil {
		return
	}
	if req == 0 {
		req = s.id
	}
	l.spans = append(l.spans, span{id: s.id, parent: parent, req: req, name: name, start: s.start, end: time.Since(l.t.epoch), n: int64(n)})
}

// all returns every recorded span named name.
func (t *tracer) all(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		for _, s := range l.spans {
			if s.name == name {
				out = append(out, s)
			}
		}
	}
	return out
}

// durations returns the durations of the spans named name.
func (t *tracer) durations(name string) []time.Duration {
	ss := t.all(name)
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.end - s.start
	}
	return out
}

// nsPerUnit is the total time of the spans named name over the work
// they covered: ns per vertex or per element.
func (t *tracer) nsPerUnit(name string) float64 {
	var d time.Duration
	var n int64
	for _, s := range t.all(name) {
		d += s.end - s.start
		n += s.n
	}
	return float64(d) / float64(n)
}

// nsPerSpan is the mean duration in ns of the spans named name.
func (t *tracer) nsPerSpan(name string) float64 {
	ss := t.all(name)
	var d time.Duration
	for _, s := range ss {
		d += s.end - s.start
	}
	return float64(d) / float64(len(ss))
}

// perSpan is the mean work count (n) per span named name.
func (t *tracer) perSpan(name string) float64 {
	ss := t.all(name)
	var n int64
	for _, s := range ss {
		n += s.n
	}
	return float64(n) / float64(len(ss))
}

// write saves every span as tab-separated lines, one per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tn")
	t.mu.Lock()
	for _, l := range t.logs {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end, s.n)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
