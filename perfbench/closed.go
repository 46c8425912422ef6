package main

import (
	"fmt"
	"sync"
	"time"

	"repro/tm"
	"repro/tm/serve"
)

// itemSource is the part of a serve backend the closed loop drives:
// the deterministic request stream and the batch item that serves a
// request.
type itemSource interface {
	NewRequest(seed, i uint64) serve.Request
	Item(req serve.Request) tm.BatchItem
	ReplyWords() int
}

// replyCheck judges one committed reply; a non-nil error fails the
// correctness gate.
type replyCheck func(req serve.Request, words []uint64) error

// closedResult is the outcome of one closed-loop phase.
type closedResult struct {
	lat    []sample // per operation: Thread.Atomic call (since the start) → return, retries included, in ms
	ops    int      // operations attempted
	failed int      // operations whose Atomic reported a user abort
}

// closedLoop runs callers goroutines, each bound to its own Thread,
// that issue one request per Thread.Atomic through the backend's
// public Item(req).Apply — the same shape as the batcher's unmerged
// path — until dur has passed. Caller c issues requests c, c+callers,
// c+2·callers, … of the seed's stream, stopping at request limit when
// limit > 0. Every reply goes through check.
func closedLoop(rt *tm.Runtime, src itemSource, seed uint64, callers int, dur time.Duration, limit int64,
	tr *tracer, parent int64, check replyCheck) (closedResult, error) {
	type callerOut struct {
		lat    []sample
		failed int
		err    error
	}
	outs := make([]callerOut, callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[c]
			th := rt.Thread(c)
			ln := tr.lane()
			rw := src.ReplyWords()
			words := make([]uint64, rw)
			for i := int64(c); ; i += int64(callers) {
				t0 := time.Now()
				if !t0.Before(deadline) || (limit > 0 && i >= limit) {
					return
				}
				req := src.NewRequest(seed, uint64(i))
				item := src.Item(req)
				apply := item.Apply
				var applyEnd time.Time
				traced := tr.sampled(i)
				if traced {
					inner, kind := item.Apply, req.Op+1
					apply = func(tx *tm.Tx, reply tm.Struct) bool {
						s := time.Now()
						ok := inner(tx, reply)
						applyEnd = time.Now()
						ln.add(spanApply, kind, s, applyEnd, reqSpanID(i), i)
						return ok
					}
				}
				committed := th.Atomic(func(tx *tm.Tx) {
					reply := tx.StackAlloc(rw)
					if !apply(tx, reply) {
						tx.Abort()
					}
					for j := range words {
						words[j] = reply.Word(j).Load(tx)
					}
				})
				t1 := time.Now()
				out.lat = append(out.lat, sample{t0.Sub(start), float64(t1.Sub(t0)) / float64(time.Millisecond)})
				if traced {
					ln.add(spanCommit, 0, applyEnd, t1, reqSpanID(i), i)
					ln.addID(reqSpanID(i), spanRequest, t0, t1, parent, i)
				}
				if !committed {
					out.failed++
					continue
				}
				if err := check(req, words); err != nil {
					out.err = fmt.Errorf("request %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var res closedResult
	for _, o := range outs {
		if o.err != nil {
			return res, o.err
		}
		res.lat = append(res.lat, o.lat...)
		res.failed += o.failed
	}
	res.ops = len(res.lat)
	return res, nil
}

// report sets the closed loop's latency percentiles and rate, steady
// over the windows of the phase, and the pooled percentiles.
func (c closedResult) report(r results, dur time.Duration) {
	starts := make([]time.Duration, len(c.lat))
	for i, s := range c.lat {
		starts[i] = s.at
	}
	all := values(c.lat)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p99_ms", 0.99}} {
		r.set(p.name, steadyQuantile(c.lat, p.q), "ms", len(c.lat))
		r.set(p.name+".all", quantile(all, p.q), "ms", len(c.lat))
	}
	r.set("ops_per_s", rateOf(windowRates(starts, dur)), "ops/s", len(c.lat))
}
