package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"listrank"
	"listrank/internal/wire"
)

// daemonBin is a listrankd built from the tree for the serve-small runs.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "listrankd")
	build := exec.Command("go", "build", "-o", daemonBin, "listrank/cmd/listrankd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		panic("build listrankd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func quickBench(t *testing.T, workload string, trace bool) *bench {
	return &bench{cfg: config{
		workload: workload, seed: 7, seconds: 0.4, trace: trace, quick: true,
		daemon: daemonBin, workdir: t.TempDir(),
	}}
}

// TestQuick runs every workload at toy sizes, untraced and traced, and
// requires a correct run that reports exactly its mode's metrics.
func TestQuick(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			b := quickBench(t, name, trace)
			m, err := run(context.Background(), b)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res, err := b.report(m)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestQuickRejectsCorruptOracle runs each workload against one
// deliberately wrong expected answer and requires the run to fail.
func TestQuickRejectsCorruptOracle(t *testing.T) {
	for _, name := range workloadNames {
		b := quickBench(t, name, false)
		b.afterOpen = func(w workload) {
			switch w := w.(type) {
			case *rankHuge:
				w.p.scan[w.p.list.Head]++ // the head's scan is 0
			case *serveSmall:
				for i := range w.resp[0] {
					w.resp[0][i][len(w.resp[0][i])-1] ^= 1
				}
			case *serveRepeat:
				for _, p := range w.probs {
					p.rank[p.list.Head]++
				}
			}
		}
		m, err := run(context.Background(), b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := b.report(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupt expectation passed: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

// TestChecksRejectCorruption feeds each check one corrupted result.
func TestChecksRejectCorruption(t *testing.T) {
	p := newProblem(newRNG(1, "test"), 300)
	rank := make([]int64, p.n())
	scan := make([]int64, p.n())
	for v := range rank {
		rank[v], scan[v] = int64(p.rank[v]), p.scan[v]
	}
	if err := checkRank(p, rank); err != nil {
		t.Fatal(err)
	}
	if err := checkScan(p, scan); err != nil {
		t.Fatal(err)
	}
	rank[5]++
	if checkRank(p, rank) == nil {
		t.Error("checkRank accepted a wrong rank")
	}
	scan[7]--
	if checkScan(p, scan) == nil {
		t.Error("checkScan accepted a wrong scan")
	}

	// The expected response bytes agree with the codec's own encoding
	// of the right answer, and differ from a corrupted one.
	want := responseBytes(p, listrank.OpScan)
	scan[7]++
	if err := checkResponse(wire.AppendResponse(nil, scan), want); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), want...)
	binary.LittleEndian.PutUint64(bad[8+8*9:], 12345)
	if checkResponse(bad, want) == nil {
		t.Error("checkResponse accepted a corrupted frame")
	}

	frame, err := wire.AppendRequest(nil, wire.OpScan, 0, p.list.Head, p.list.Next, p.list.Value)
	if err != nil {
		t.Fatal(err)
	}
	var wb wire.Buffer
	h, err := wire.DecodeRequest(frame, &wb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecoded(p, listrank.OpScan, h, &wb); err != nil {
		t.Fatal(err)
	}
	wb.Next[3] = wb.Next[4]
	if checkDecoded(p, listrank.OpScan, h, &wb) == nil {
		t.Error("checkDecoded accepted a corrupted decode")
	}

	st := listrank.ServerStats{Submitted: 10, Served: 7, Rejected: 1, Expired: 1, Shed: 1, ReorderHits: 5, ReorderMisses: 2}
	if err := checkIdentity(st); err != nil {
		t.Fatal(err)
	}
	if err := checkServed(st, 7, true); err != nil {
		t.Fatal(err)
	}
	st.Submitted++
	if checkIdentity(st) == nil {
		t.Error("checkIdentity accepted unbalanced books")
	}
	if checkServed(st, 8, false) == nil {
		t.Error("checkServed accepted a served count off by one")
	}
	st.ReorderMisses++
	if checkServed(st, 7, true) == nil {
		t.Error("checkServed accepted hits+misses != served")
	}

	text := "listrank_submitted_total 5\nlistrank_served_total 5\nlistrankd_outcome_served_total 5\n"
	if err := checkMetrics(text, 5); err != nil {
		t.Fatal(err)
	}
	if checkMetrics(text, 6) == nil {
		t.Error("checkMetrics accepted a served count the client did not see")
	}
	if checkMetrics("listrank_submitted_total 6\nlistrank_served_total 5\nlistrankd_outcome_served_total 5\n", 5) == nil {
		t.Error("checkMetrics accepted unbalanced books")
	}

	if err := checkDrain(nil); err != nil {
		t.Fatal(err)
	}
	if checkDrain(exec.Command(daemonBin, "-no-such-flag").Run()) == nil {
		t.Error("checkDrain accepted a daemon that exited nonzero")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names only workloads
// this command runs and exactly the metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range spec.Workloads {
		known := false
		for _, name := range workloadNames {
			known = known || w.Name == name
		}
		if !known {
			t.Errorf("BENCHMARK.json workload %q is not one the command runs %v", w.Name, workloadNames)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command reports %d", kind, len(got), len(want))
		}
		for i, d := range got {
			if w := want[i]; d.Name != w.name || d.Unit != w.unit || d.Better != w.better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, command %+v", kind, i, d, w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
