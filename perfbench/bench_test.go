package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenarios/tmkv"
	"repro/tm"
	"repro/tm/serve"
)

// spec is the part of BENCHMARK.json the test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// runLine runs the command and decodes its last output line.
func runLine(t *testing.T, args ...string) map[string]struct {
	Value float64
	Unit  string
} {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append(args, "--scratch", t.TempDir()), &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%v: last line: %v", args, err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Fatalf("%v: correct %v, attempted %d, failed %d", args, line.Correct, line.Attempted, line.Failed)
	}
	return line.Metrics
}

// TestEveryMetricEmitted runs each workload at the smallest size, untraced
// and traced, and checks that every metric BENCHMARK.json names is
// emitted with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
				got := runLine(t, "--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace])
				if len(got) != len(want) {
					t.Errorf("trace %d: %d metrics, BENCHMARK.json names %d", trace, len(got), len(want))
				}
				for _, m := range want {
					if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("trace %d: metric %s: got %+v (present %v), want unit %s", trace, m.Name, v, ok, m.Unit)
					}
				}
			}
		})
	}
}

// TestWrongChecksumTripsRecoveryCheck crashes a small durable run and
// checks that recovery verification rejects a wrong expected checksum
// and accepts the right one.
func TestWrongChecksumTripsRecoveryCheck(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dur")
	cfg := durableMix(1)
	be, rt, err := kvSetup(cfg, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := closedLoop(rt, be, 1, 2, time.Hour, 256, nil, 0, kvCheck); err != nil {
		rt.Close()
		t.Fatal(err)
	}
	want := rt.Unwrap().Space().Checksum()
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rt.Crash()
	if _, err := verifyRecovery(dir, want+1); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("wrong expected checksum: err = %v, want a checksum mismatch", err)
	}
	if _, err := verifyRecovery(dir, want); err != nil {
		t.Fatalf("right expected checksum: %v", err)
	}
}

// stallBackend holds every Apply that starts before until, which stalls
// the whole server for a while.
type stallBackend struct {
	*tmkv.KVBackend
	until time.Time
}

func (b stallBackend) Item(req serve.Request) tm.BatchItem {
	it := b.KVBackend.Item(req)
	inner := it.Apply
	it.Apply = func(tx *tm.Tx, reply tm.Struct) bool {
		if d := time.Until(b.until); d > 0 {
			time.Sleep(d)
		}
		return inner(tx, reply)
	}
	return it
}

// TestStallChargedFromDueTime stalls the server for the first 100 ms of
// an open-loop rung and checks that the requests due during the stall
// are charged the wait from their due time, not from when they were
// finally sent or served.
func TestStallChargedFromDueTime(t *testing.T) {
	const stall = 100 * time.Millisecond
	be := tmkv.NewKVBackend(openMix(1))
	sb := &stallBackend{KVBackend: be}
	srv := serve.NewServer(sb, serve.Config{Workers: 2, MergeWidth: kvMergeWidth, Requests: churnHint,
		Options: profile().Options()})
	ol := &openLoop{e: env{seed: 1, nproc: 2}, srv: srv, be: be, pend: make([]bool, 2)}
	srv.Start()
	sb.until = time.Now().Add(stall) // before any request is submitted
	rr, n, err := ol.rung(2000, 3*stall, 0)
	if serr := srv.Stop(); err == nil {
		err = serr
	}
	if err != nil {
		t.Fatal(err)
	}
	// About a third of the requests fall due during the stall; the
	// earliest wait almost all of it.
	if n < 300 {
		t.Fatalf("issued %d requests, want about 600", n)
	}
	lat := make([]float64, len(rr.lat))
	for i, x := range rr.lat {
		lat[i] = x.v
	}
	if p90, p99 := quantile(lat, 0.90), quantile(lat, 0.99); p99 < 0.8*float64(stall.Milliseconds()) || p90 < 0.2*float64(stall.Milliseconds()) {
		t.Fatalf("latency p90 %.2f ms, p99 %.2f ms: a %v stall is not charged from due time", p90, p99, stall)
	}
}
