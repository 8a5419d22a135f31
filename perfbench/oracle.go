package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"

	"listrank"
)

// This file is the benchmark's oracle. Every list is built from a
// seeded permutation, and the expected rank and scan of every vertex
// are read off that permutation — position in it, and the running sum
// of values along it — never computed by the program under test.

// maxValue bounds the non-unit vertex values (drawn from [1, maxValue]).
// It keeps every value inside the wire format's int32 payload.
const maxValue = 1000

// problem is one seeded list together with its expected answers.
type problem struct {
	list listrank.List
	// rank[v] is v's position in the generating permutation; scan[v]
	// is the sum of the values at the positions before it.
	rank []int32
	scan []int64
}

func (p *problem) n() int { return len(p.rank) }

// newProblem builds an n-vertex list in uniformly random memory order
// with values in [1, maxValue].
func newProblem(r *rng, n int) *problem {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	p := &problem{
		list: listrank.List{Next: make([]int64, n), Value: make([]int64, n), Head: int64(perm[0])},
		rank: make([]int32, n),
		scan: make([]int64, n),
	}
	for v := range p.list.Value {
		p.list.Value[v] = 1 + int64(r.intn(maxValue))
	}
	var acc int64
	for i, v := range perm {
		p.rank[v] = int32(i)
		p.scan[v] = acc
		acc += p.list.Value[v]
		if i+1 < n {
			p.list.Next[v] = int64(perm[i+1])
		} else {
			p.list.Next[v] = int64(v)
		}
	}
	return p
}

// clone returns a copy of the list arrays for a caller that needs its
// own (the serving engines mutate a list in place while ranking it, so
// concurrent requests must not share one).
func (p *problem) clone() listrank.List {
	return listrank.List{
		Next:  append([]int64(nil), p.list.Next...),
		Value: append([]int64(nil), p.list.Value...),
		Head:  p.list.Head,
	}
}

// errMismatch marks a result that disagrees with the oracle.
var errMismatch = errors.New("result differs from the oracle")

func checkRank(p *problem, got []int64) error {
	if len(got) != p.n() {
		return fmt.Errorf("%w: rank of %d vertices has %d entries", errMismatch, p.n(), len(got))
	}
	for v, want := range p.rank {
		if got[v] != int64(want) {
			return fmt.Errorf("%w: n=%d rank[%d] = %d, want %d", errMismatch, p.n(), v, got[v], want)
		}
	}
	return nil
}

func checkScan(p *problem, got []int64) error {
	if len(got) != p.n() {
		return fmt.Errorf("%w: scan of %d vertices has %d entries", errMismatch, p.n(), len(got))
	}
	for v, want := range p.scan {
		if got[v] != want {
			return fmt.Errorf("%w: n=%d scan[%d] = %d, want %d", errMismatch, p.n(), v, got[v], want)
		}
	}
	return nil
}

// check verifies one result for op.
func check(p *problem, op listrank.Op, got []int64) error {
	if op == listrank.OpScan {
		return checkScan(p, got)
	}
	return checkRank(p, got)
}

// poison overwrites a result buffer before a call, so a call that
// writes nothing cannot pass on the previous call's answer.
func poison(dst []int64) {
	for i := range dst {
		dst[i] = -1
	}
}

// responseBytes is the response frame the daemon must send for op,
// written from the frame layout in internal/wire's documentation:
// magic "LRR1", uint32 element count, then int64 results, all
// little-endian.
func responseBytes(p *problem, op listrank.Op) []byte {
	n := p.n()
	b := make([]byte, 0, 8+8*n)
	b = append(b, 'L', 'R', 'R', '1')
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for v := 0; v < n; v++ {
		want := int64(p.rank[v])
		if op == listrank.OpScan {
			want = p.scan[v]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(want))
	}
	return b
}

func checkResponse(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: response frame of %d bytes differs from the expected %d bytes", errMismatch, len(got), len(want))
	}
	return nil
}

// checkIdentity checks the serving layer's accounting identity: every
// submission lands in exactly one outcome bucket.
func checkIdentity(st listrank.ServerStats) error {
	if sum := st.Served + st.Rejected + st.Expired + st.Poisoned + st.Shed; st.Submitted != sum {
		return fmt.Errorf("accounting identity broken: submitted %d != served %d + rejected %d + expired %d + poisoned %d + shed %d",
			st.Submitted, st.Served, st.Rejected, st.Expired, st.Poisoned, st.Shed)
	}
	return nil
}

// checkServed checks that the server served exactly the requests the
// benchmark completed, and (for handle traffic) that every one of them
// was a reorder-cache hit or miss.
func checkServed(st listrank.ServerStats, completed int64, handles bool) error {
	if st.Served != completed {
		return fmt.Errorf("server served %d requests, the benchmark completed %d", st.Served, completed)
	}
	if handles && st.ReorderHits+st.ReorderMisses != st.Served {
		return fmt.Errorf("reorder hits %d + misses %d != %d handle requests served", st.ReorderHits, st.ReorderMisses, st.Served)
	}
	return nil
}

// promCounters parses the counters of a Prometheus text exposition
// (unlabelled samples only).
func promCounters(text string) map[string]int64 {
	m := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64); err == nil {
			m[name] = v
		}
	}
	return m
}

// checkMetrics checks the daemon's /metrics against the client's own
// count of served responses: the fleet and the daemon's outcome
// counters must both equal it, and the fleet identity must balance.
func checkMetrics(text string, clientServed int64) error {
	c := promCounters(text)
	for _, name := range []string{"listrank_submitted_total", "listrank_served_total", "listrankd_outcome_served_total"} {
		if _, ok := c[name]; !ok {
			return fmt.Errorf("/metrics lacks %s", name)
		}
	}
	if got := c["listrank_served_total"]; got != clientServed {
		return fmt.Errorf("/metrics listrank_served_total = %d, the client was served %d", got, clientServed)
	}
	if got := c["listrankd_outcome_served_total"]; got != clientServed {
		return fmt.Errorf("/metrics listrankd_outcome_served_total = %d, the client was served %d", got, clientServed)
	}
	return checkIdentity(listrank.ServerStats{
		Submitted: c["listrank_submitted_total"],
		Served:    c["listrank_served_total"],
		Rejected:  c["listrank_rejected_total"],
		Expired:   c["listrank_expired_total"],
		Poisoned:  c["listrank_poisoned_total"],
		Shed:      c["listrank_shed_total"],
	})
}

// checkDrain interprets the daemon's exit after SIGTERM: it exits 0
// only when its books balanced and no goroutine or buffer leaked.
func checkDrain(waitErr error) error {
	if waitErr == nil {
		return nil
	}
	var ee *exec.ExitError
	if errors.As(waitErr, &ee) {
		return fmt.Errorf("daemon drain failed: %v (see its log)", ee)
	}
	return fmt.Errorf("daemon drain: %w", waitErr)
}
