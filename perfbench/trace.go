package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Span names: one per boundary the benchmark times around calls into
// the system's public API. Nothing inside the system is instrumented.
const (
	spanSetup      uint8 = iota + 1 // tm.Open / serve.NewServer + backend Setup (+ initial checkpoint)
	spanRun                         // a measured phase (tm.Workload.Run, closed loop, open loop)
	spanValidate                    // tm.Workload.Validate / Runtime.Validate / checksums
	spanRung                        // one open-loop ladder rung or the saturation phase
	spanRequest                     // one request: due time (open loop) or Atomic call → reply
	spanSubmit                      // serve.Server.Submit call
	spanQueue                       // item queued inside Submit → first Apply attempt starts
	spanApply                       // one Apply attempt of a batch item
	spanPost                        // own Apply end → reply (rest of batch, commit, reply copy)
	spanCommit                      // final Apply end → Thread.Atomic return
	spanCheckpoint                  // Runtime.Checkpoint
	spanCrash                       // Runtime.Crash
	spanRecover                     // tm.Recover
)

var spanNames = [...]string{
	spanSetup: "setup", spanRun: "run", spanValidate: "validate", spanRung: "rung",
	spanRequest: "request", spanSubmit: "submit", spanQueue: "queue", spanApply: "apply",
	spanPost: "post-apply", spanCommit: "commit", spanCheckpoint: "checkpoint",
	spanCrash: "crash", spanRecover: "recover",
}

// spanLayer names the layer whose self time a span measures.
var spanLayer = [...]string{
	spanSetup: "setup (tm.Open, backend Setup)", spanRun: "benchmark driver",
	spanValidate: "validation", spanRung: "open-loop generator",
	spanRequest: "request: time outside its child spans", spanSubmit: "tm/serve submit",
	spanQueue: "tm/serve queue", spanApply: "tmkv/tmmsg Apply (internal/stm barriers, internal/txlib)",
	spanPost: "tm.Batcher + internal/stm commit + reply", spanCommit: "internal/stm commit (+ internal/wal ack)",
	spanCheckpoint: "internal/wal checkpoint", spanCrash: "internal/wal crash",
	spanRecover: "internal/wal recover",
}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; parent is 0 for a root span; req is the request id spans of
// one request share (-1 for none); kind is the operation code of an
// apply span.
type span struct {
	id, parent, req int64
	start, end      int64
	name, kind      uint8
}

// tracer keeps spans in memory, one lane per goroutine, and writes
// them out when the benchmark ends. A nil *tracer (and the nil lanes
// it hands out) records nothing, which is how untraced runs execute
// the same code.
type tracer struct {
	epoch time.Time
	// every is the request sampling stride: only requests whose id is
	// a multiple of every record their spans, which bounds trace
	// memory on long open-loop runs.
	every int64

	mu    sync.Mutex
	lanes []*lane
}

func newTracer(every int64) *tracer {
	return &tracer{epoch: time.Now(), every: max(every, 1)}
}

// lane is one goroutine's span buffer.
type lane struct {
	tr    *tracer
	id    int64
	spans []span
}

// lane returns a fresh buffer for one goroutine.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{tr: t, id: int64(len(t.lanes) + 1)}
	t.lanes = append(t.lanes, l)
	return l
}

// sampled reports whether request req records spans.
func (t *tracer) sampled(req int64) bool { return t != nil && req%t.every == 0 }

// reqSpanID is the span id of request req's root span, known before
// the root span itself is recorded at the reply.
func reqSpanID(req int64) int64 { return 1<<62 | req }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span and returns its id (0 on a nil lane).
func (l *lane) add(name, kind uint8, start, end time.Time, parent, req int64) int64 {
	if l == nil {
		return 0
	}
	id := l.id<<40 | int64(len(l.spans)+1)
	l.spans = append(l.spans, span{id: id, parent: parent, req: req,
		start: l.tr.ns(start), end: l.tr.ns(end), name: name, kind: kind})
	return id
}

// addID records a finished span under a preassigned id (request roots).
func (l *lane) addID(id int64, name uint8, start, end time.Time, parent, req int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{id: id, parent: parent, req: req,
		start: l.tr.ns(start), end: l.tr.ns(end), name: name})
}

// begin opens a span that end closes; it returns a handle for end and
// the span id children name as parent.
func (l *lane) begin(name uint8, parent, req int64) (int, int64) {
	if l == nil {
		return -1, 0
	}
	now := time.Now()
	id := l.add(name, 0, now, now, parent, req)
	return len(l.spans) - 1, id
}

func (l *lane) end(h int) {
	if l == nil || h < 0 {
		return
	}
	l.spans[h].end = l.tr.ns(time.Now())
}

// all returns every recorded span. Call it after the goroutines owning
// the lanes have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// durationsOf returns the durations (ns) of spans with the given name,
// and, when kind > 0, the given operation kind.
func durationsOf(spans []span, name, kind uint8) []int64 {
	var out []int64
	for _, s := range spans {
		if s.name == name && (kind == 0 || s.kind == kind) {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTime is the aggregate of one span name: total duration, the part
// of it no child span covers, and the span count.
type selfTime struct {
	name        uint8
	total, self int64
	count       int
}

// selfTimes computes per-name self time: each span's duration minus
// the union of its children's intervals clipped to it.
func selfTimes(spans []span) []selfTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	agg := make(map[uint8]*selfTime)
	for _, s := range spans {
		a := agg[s.name]
		if a == nil {
			a = &selfTime{name: s.name}
			agg[s.name] = a
		}
		d := s.end - s.start
		a.total += d
		a.self += d - covered(s, children[s.id])
		a.count++
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	slices.SortFunc(out, func(a, b selfTime) int { return int(a.name) - int(b.name) })
	return out
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, s.start), min(k.end, s.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return sum + curHi - curLo
}

// write stores the spans as a Chrome trace-event file (loadable in
// Perfetto or chrome://tracing): one complete event per span, the lane
// as thread, ids and request ids in args.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"+
				"\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\"kind\":%d}}",
				spanNames[s.name], l.id, float64(s.start)/1e3, float64(s.end-s.start)/1e3,
				s.id, s.parent, s.req, s.kind)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}
