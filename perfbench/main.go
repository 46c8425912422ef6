// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads — msg-closed, kv-open, kv-durable — under the
// paper's two mechanisms together, checks that the outputs are
// correct, and prints every metric with its unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 the workload runs once untraced and once
// traced, and the metrics are the per-layer ones, computed from spans
// the benchmark records around its calls into each layer. Any
// correctness-gate failure exits with status 1 and prints no result.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload kv-open --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// env is what one workload run is given.
type env struct {
	seed    uint64
	budget  time.Duration // length of the measured phases
	nproc   int           // closed-loop callers and serving workers
	tr      *tracer       // nil: tracing off
	probes  bool          // also run the untraced comparison twins (traced invocations)
	scratch string        // directory for durability files
	st      *stamp
}

// outcome is what one workload run reports: its metrics and how many
// operations it attempted and how many of those failed (refused,
// errored, or unanswered).
type outcome struct {
	r         results
	attempted int
	failed    int
}

var runners = map[string]func(env) (outcome, error){
	msgClosed: runMsgClosed,
	kvOpen:    runKVOpen,
	kvDurable: runKVDurable,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the program sees it only through the generated inputs")
	seconds := fs.Int("seconds", 10, "length of the measured phases, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for durability files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := runners[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --seconds ≥ 1, --trace 0|1\n",
			strings.Join(workloads, ", "))
		return 2
	}
	nproc := runtime.NumCPU()
	st := &stamp{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Nproc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: cpuModel(),
		FlushPolicy: "durability off", Callers: nproc, Workers: nproc,
	}
	if *workload == kvOpen {
		st.Callers = 1 // one generator goroutine
	} else {
		st.Workers = 0
	}
	st.Oversubscribed = st.Callers > st.GOMAXPROCS || st.Workers > st.GOMAXPROCS
	base := env{seed: *seed, nproc: nproc, scratch: *scratch, st: st,
		budget: time.Duration(*seconds) * time.Second}

	var res map[string]value
	var attempted, failed int
	var err error
	if *trace == 0 {
		var o outcome
		o, err = runner(base)
		if err == nil {
			o.r.set("mem_mb", maxRSSMiB(), "MiB", 1)
			writeStamp(stdout, st)
			report(stdout, "end-to-end (tracing off)", o.r, append(slices.Clone(endToEnd), reportOnly[*workload]...), false)
			res, attempted, failed = pick(o.r, endToEnd), o.attempted, o.failed
		}
	} else {
		res, attempted, failed, err = traced(base, runner, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "attempted %d, failed %d (failed_frac %.6g)\n", attempted, failed, frac(float64(failed), float64(attempted)))
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: true, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metricOut{}}
	for name, v := range res {
		line.Metrics[name] = metricOut{Value: v.v, Unit: v.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// traced runs the workload untraced and then traced, each for half the
// budget, and derives the per-layer metrics: spans and counters from
// the traced half, Go runtime costs and untraced comparisons from the
// untraced half, plus the access ladder and the counting twin.
func traced(base env, runner func(env) (outcome, error), stdout io.Writer) (results, int, int, error) {
	half := base
	half.budget = max(base.budget/2, time.Second)
	u := half
	u.probes = true
	uo, err := runner(u)
	if err != nil {
		return nil, 0, 0, err
	}
	t := half
	t.tr = newTracer(16)
	to, err := runner(t)
	if err != nil {
		return nil, 0, 0, err
	}
	layer := results{}
	for _, m := range perLayer {
		layer.set(m.name, 0, m.unit, 0)
	}
	for name, v := range to.r {
		if _, ok := layer[name]; ok {
			layer[name] = v
		}
	}
	for name, v := range uo.r {
		if strings.HasPrefix(name, "go.") || name == "wal.slowdown" {
			layer[name] = v
		}
	}
	spans := t.tr.all()
	spanLayers(base.st.Workload, spans, layer)
	layer.set("trace.overhead", frac(uo.r["ops_per_s"].v, to.r["ops_per_s"].v), "ratio", 2)
	if err := accessLadder(layer); err != nil {
		return nil, 0, 0, err
	}
	if err := captureTwin(base.st.Workload, base.seed, layer); err != nil {
		return nil, 0, 0, err
	}

	writeStamp(stdout, base.st)
	e2e := append(slices.Clone(endToEnd), reportOnly[base.st.Workload]...)
	report(stdout, "end-to-end, untraced half", uo.r, e2e, false)
	report(stdout, "end-to-end, traced half", to.r, e2e, false)
	report(stdout, "per-layer (traced run) and the end-to-end metric each should move", layer, perLayer, true)
	fmt.Fprintf(stdout, "# self time by span (%d spans, 1 in %d requests sampled)\n", len(spans), t.tr.every)
	fmt.Fprintf(stdout, "%-12s %-58s %9s %12s %12s\n", "span", "layer", "count", "total_ms", "self_ms")
	for _, s := range selfTimes(spans) {
		fmt.Fprintf(stdout, "%-12s %-58s %9d %12.3f %12.3f\n", spanNames[s.name], spanLayer[s.name],
			s.count, float64(s.total)/1e6, float64(s.self)/1e6)
	}
	path := filepath.Join(base.scratch, "traces", fmt.Sprintf("%s-seed%d.json", base.st.Workload, base.seed))
	if err := t.tr.write(path); err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(stdout, "# spans written to %s\n", path)
	return layer, uo.attempted + to.attempted, uo.failed + to.failed, nil
}

// kvOps names the tmkv operation codes (request Op + 1) of apply spans.
var kvOps = []string{1: "read", 2: "upsert", 3: "insert", 4: "delete", 5: "scan"}

// spanLayers derives the span-timed per-layer metrics.
func spanLayers(workload string, spans []span, r results) {
	pct := func(name string, ns []int64, qs ...float64) {
		us := durations(ns, time.Microsecond)
		for _, q := range qs {
			n := name
			if len(qs) > 1 {
				n += fmt.Sprintf(".p%d", int(q*100))
			}
			r.set(n, quantile(us, q), "us", len(us))
		}
	}
	pct("stm.commit_us", durationsOf(spans, spanCommit, 0), 0.5, 0.99)
	if workload != msgClosed {
		for kind := uint8(1); kind < uint8(len(kvOps)); kind++ {
			pct("kv.apply_us."+kvOps[kind], durationsOf(spans, spanApply, kind), 0.5)
		}
	}
	if workload == kvOpen {
		pct("serve.queue_us", durationsOf(spans, spanQueue, 0), 0.5, 0.99)
		pct("serve.post_us.p50", durationsOf(spans, spanPost, 0), 0.5)
	}
}

// pick returns the named metrics of r.
func pick(r results, defs []metricDef) results {
	out := results{}
	for _, d := range defs {
		if v, ok := r[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

func writeStamp(w io.Writer, st *stamp) {
	b, _ := json.Marshal(st) // a struct of strings, ints and bools always encodes
	fmt.Fprintf(w, "# stamp %s\n", b)
	if st.Oversubscribed {
		fmt.Fprintf(w, "# OVERSUBSCRIBED: %d callers / %d workers on GOMAXPROCS %d\n", st.Callers, st.Workers, st.GOMAXPROCS)
	}
}

// report prints one table of metrics in catalogue order.
func report(w io.Writer, title string, r results, defs []metricDef, withLayer bool) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, d := range defs {
		v, ok := r[d.name]
		val := "n/a"
		if ok && (v.n > 0 || !withLayer) {
			val = fmt.Sprintf("%.6g", v.v)
		}
		fmt.Fprintf(w, "%-30s %14s %-6s n=%-9d", d.name, val, d.unit, v.n)
		if withLayer {
			fmt.Fprintf(w, " %-28s %s", d.layer, d.moves)
		}
		fmt.Fprintln(w)
	}
}
