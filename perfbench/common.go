package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"

	"repro/tm"
)

// profile is the one configuration every workload runs: runtime
// capture analysis of stack and heap in both barriers over the tree
// log, with compiler elision, in perf mode — the paper's two
// mechanisms together. No phase, adaptive, contention or read-mostly
// option is used.
func profile() tm.Profile {
	return tm.RuntimeAll(tm.LogTree).Perf().With(tm.WithCompilerElision())
}

// countingProfile is profile's instrumented twin: the same barriers
// with statistics kept and the Fig. 8 capture classification on.
func countingProfile() tm.Profile {
	return tm.RuntimeAll(tm.LogTree).With(tm.WithCompilerElision(), tm.WithCounting())
}

// bareProfile is profile without the compiler-elision prologue, for
// the full_bare rung of the access ladder.
func bareProfile() tm.Profile { return tm.RuntimeAll(tm.LogTree).Perf() }

// setupReps is how many times a run sets kv-open and kv-durable up;
// setup_s is the median.
const setupReps = 5

// openRuntime opens a runtime under p with extra options appended.
func openRuntime(p tm.Profile, extra ...tm.Option) (*tm.Runtime, error) {
	rt, err := tm.OpenErr(append(p.Options(), extra...)...)
	if err != nil {
		return nil, fmt.Errorf("open runtime: %w", err)
	}
	return rt, nil
}

// validateOrecs runs Runtime.Validate, which panics on an ownership
// record left locked, and returns that panic as an error.
func validateOrecs(rt *tm.Runtime) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("orec check: %v", r)
		}
	}()
	rt.Validate()
	return nil
}

// goCounters is a snapshot of the Go runtime's allocation and GC
// counters.
type goCounters struct {
	allocBytes uint64
	pauseNs    uint64
	gcs        uint32
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{allocBytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, gcs: ms.NumGC}
}

// add accumulates the counters' growth from a to b.
func (g *goCounters) add(a, b goCounters) {
	g.allocBytes += b.allocBytes - a.allocBytes
	g.pauseNs += b.pauseNs - a.pauseNs
	g.gcs += b.gcs - a.gcs
}

// goDelta reports the Go runtime's cost over a phase that completed
// ops operations.
func goDelta(r results, before, after goCounters, ops int) {
	r.set("go.alloc_b_per_op", frac(float64(after.allocBytes-before.allocBytes), float64(ops)), "B", ops)
	r.set("go.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms", int(after.gcs-before.gcs))
	r.set("go.gc_cycles", float64(after.gcs-before.gcs), "count", 1)
}

// maxRSSMiB is the process's peak resident set size (getrusage
// ru_maxrss, KiB on Linux) in MiB: the peak memory of the run, every
// phase and set-up repetition included.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stamp describes the machine and configuration a run measured.
type stamp struct {
	Workload       string `json:"workload"`
	Seed           uint64 `json:"seed"`
	Seconds        int    `json:"seconds"`
	Trace          bool   `json:"trace"`
	Nproc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	CPU            string `json:"cpu"`
	Engine         string `json:"engine"`
	MergeWidth     int    `json:"merge_width"`
	FlushPolicy    string `json:"flush_policy"`
	Callers        int    `json:"callers"`
	Workers        int    `json:"workers"`
	Oversubscribed bool   `json:"oversubscribed"`
}
