package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/prng"
	"repro/internal/scenarios/tmkv"
	"repro/tm"
	"repro/tm/serve"
)

// Offered-load ladder of kv-open, in requests per second: 20%, 40%,
// 60% and 80% of the ~60k req/s the srv-tmkv mix saturates at on two
// cores (Intel Xeon, 4 MiB L2 per core) with this benchmark's
// generator sharing them. The rates are absolute so that a
// faster or slower program meets the same offered load.
var ladderRPS = []float64{12_000, 24_000, 36_000, 48_000}

// rungShare is the part of each cycle spent on each rung; saturation
// takes the rest. The lo rung, which gives p50_ms and p99_ms, gets the
// most, so its tail percentile rests on many windows.
var rungShare = []float64{0.35, 0.10, 0.15, 0.10}

const (
	loRung = 0 // rung whose latency is p50_ms / p99_ms
	hiRung = 2 // rung whose latency is p50_ms.hi / p99_ms.hi

	kvMergeWidth = 8
	// openCycles is how many times a run climbs the ladder and
	// saturates; latencies and peak are medians over the cycles.
	openCycles = 5
	// sloP99 is the latency limit a rung's p99, measured from due
	// time, must meet for the rung to count as sustained.
	sloP99 = 10 * time.Millisecond
	// satMaxRPS bounds the requests the saturation phase may issue.
	satMaxRPS = 400_000
	// churnHint is the request count a backend's memory is sized for
	// (serve.Config.Requests, Backend.MemConfig). Freed blocks recycle
	// once the threads quiesce, which two workers or callers do
	// between transactions, so the heap needs room for the live data
	// plus the churn still waiting for recycling, not for every
	// request of the run.
	churnHint = 1 << 12
)

// openMix is the srv-tmkv OLTP mix: 50% read, 10% scan, 20% upsert,
// 10% insert, 10% delete over Zipf 0.85.
func openMix(seed uint64) tmkv.Config {
	c := tmkv.ServeMix()
	c.Name = kvOpen
	c.Seed = seed
	return c
}

// reqRec is the generator's record of one ladder request. The
// generator writes due, sent and enq before the request is queued;
// the serving worker writes the rest, and the generator reads them
// only after the reply count shows the reply arrived.
type reqRec struct {
	due, sent, enq, ret time.Time // due time, Submit call, item enqueued, Submit return
	firstApply, applied time.Time // first Apply attempt start, last Apply end
	done                time.Time
	worker              int
	replies             atomic.Int32
	aborted, badSum     bool
}

// rungResult summarizes one ladder rung.
type rungResult struct {
	offered, achieved float64
	lat               []sample // latency from due time (ms), at the due time since the rung start
	grew              bool
}

func (r rungResult) sustained() bool {
	return r.achieved >= 0.98*r.offered && !r.grew &&
		steadyQuantile(r.lat, 0.99) <= float64(sloP99)/float64(time.Millisecond)
}

// openLoop is the state of one kv-open run.
type openLoop struct {
	e      env
	srv    *serve.Server
	be     *tmkv.KVBackend
	gen    *lane
	wl     []*lane // per serving worker, indexed by Thread id
	recs   []reqRec
	base   int64 // request id of recs[0]
	next   int64 // next request id of the seed's stream
	out    atomic.Int64
	pend   []bool // per worker: an Apply ran since the worker's last reply
	lateNs []int64
	blkNs  []int64
	errs   atomic.Int64 // Submit errors

	ladderFailed int // ladder requests refused by Apply
}

// tracedItem wraps a batch item so its Apply attempts are timed on
// the serving worker's lane. Item runs inside Submit on the generator
// goroutine, before the request is queued.
type tracedItem struct {
	*tmkv.KVBackend
	ol *openLoop
}

func (b tracedItem) Item(req serve.Request) tm.BatchItem {
	it := b.KVBackend.Item(req)
	ol := b.ol
	id := int64(req.Client)
	if id < ol.base || id-ol.base >= int64(len(ol.recs)) {
		return it // saturation phase: untimed
	}
	rec := &ol.recs[id-ol.base]
	rec.enq = time.Now()
	inner, kind := it.Apply, req.Op+1
	it.Apply = func(tx *tm.Tx, reply tm.Struct) bool {
		w := tx.Thread().ID()
		s := time.Now()
		ok := inner(tx, reply)
		e := time.Now()
		if rec.firstApply.IsZero() {
			rec.firstApply = s
		}
		rec.applied, rec.worker = e, w
		ol.pend[w] = true
		ol.wl[w].add(spanApply, kind, s, e, reqSpanID(id), id)
		return ok
	}
	return it
}

func newServer(e env, be serve.Backend) *serve.Server {
	return serve.NewServer(be, serve.Config{
		Workers:    e.nproc,
		MergeWidth: kvMergeWidth,
		Requests:   churnHint,
		Options:    profile().Options(),
	})
}

// runKVOpen drives the srv-tmkv mix behind serve.Server with an
// open-loop Poisson generator — one goroutine, pinned to its thread,
// releasing every due request on each wake-up — over the offered-load
// ladder, then keeps the accept queue full for the saturation phase.
func runKVOpen(e env) (outcome, error) {
	out := outcome{r: results{}}
	cfg := openMix(e.seed)
	cycle := e.budget / openCycles
	rungLen := make([]time.Duration, len(ladderRPS))
	sat := cycle // saturation takes what the rungs leave
	for k, share := range rungShare {
		rungLen[k] = time.Duration(share * float64(cycle))
		sat -= rungLen[k]
	}
	e.st.MergeWidth = kvMergeWidth

	ol := &openLoop{e: e, gen: e.tr.lane(), pend: make([]bool, e.nproc)}
	if e.tr != nil {
		for range e.nproc {
			ol.wl = append(ol.wl, e.tr.lane())
		}
	}
	var setups []float64
	for range setupReps {
		if ol.srv != nil {
			_ = ol.srv.Stop()    // closing a runtime without durability cannot fail
			debug.FreeOSMemory() // start the next repetition from memory returned to the OS, like a fresh process
		}
		t0 := time.Now()
		ol.be = tmkv.NewKVBackend(cfg)
		var be serve.Backend = ol.be
		if e.tr != nil {
			be = tracedItem{ol.be, ol}
		}
		ol.srv = newServer(e, be)
		t1 := time.Now()
		ol.gen.add(spanSetup, 0, t0, t1, 0, -1)
		setups = append(setups, t1.Sub(t0).Seconds())
	}
	e.st.Engine = ol.srv.Runtime().Engine()
	out.r.set("setup_s", median(setups), "s", len(setups))

	ol.srv.Start()
	before := readGoCounters()
	rungs := make([][]rungResult, len(ladderRPS)) // [rung][cycle]
	var peaks []float64
	var gateErr error
	fail := func(err error) {
		if err != nil && gateErr == nil {
			gateErr = err
		}
	}
	for c := range openCycles {
		for k, rate := range ladderRPS {
			rr, n, err := ol.rung(rate, rungLen[k], uint64(c))
			out.attempted += n
			rungs[k] = append(rungs[k], rr)
			fail(err)
		}
		rates, n, refused, err := ol.saturate(sat)
		out.attempted += n
		out.failed += refused
		peaks = append(peaks, rates...)
		fail(err)
	}
	stopErr := ol.srv.Stop()
	goDelta(out.r, before, readGoCounters(), out.attempted)
	if gateErr != nil {
		return out, gateErr
	}
	if stopErr != nil {
		return out, fmt.Errorf("stop server: %w", stopErr)
	}
	if err := validateOrecs(ol.srv.Runtime()); err != nil {
		return out, err
	}
	out.failed += int(ol.errs.Load()) + ol.ladderFailed

	r := out.r
	// A rung's percentile is steady over its windows in every cycle.
	latency := func(name string, rr []rungResult, q float64) {
		var per, all []float64
		for _, c := range rr {
			ws := windowQuantiles(c.lat, q, minWindowSamples)
			if len(ws) == 0 {
				ws = []float64{quantile(values(c.lat), q)}
			}
			per = append(per, ws...)
			all = append(all, values(c.lat)...)
		}
		r.set(name, latencyOf(per), "ms", len(all))
		r.set(name+".all", quantile(all, q), "ms", len(all))
	}
	latency("p50_ms", rungs[loRung], 0.5)
	latency("p99_ms", rungs[loRung], 0.99)
	latency("p50_ms.hi", rungs[hiRung], 0.5)
	latency("p99_ms.hi", rungs[hiRung], 0.99)
	sustained := 0.0
	for k, rr := range rungs {
		held := 0
		for _, c := range rr {
			if c.sustained() {
				held++
			}
		}
		if 2*held > len(rr) {
			sustained = ladderRPS[k]
		}
	}
	r.set("sustained_rps", sustained, "req/s", len(rungs)*openCycles)
	r.set("peak_rps", rateOf(peaks), "req/s", len(peaks))
	r.set("ops_per_s", rateOf(peaks), "ops/s", len(peaks)) // the peak: kv-open's throughput

	late := durations(ol.lateNs, time.Microsecond)
	r.set("gen.late_us.p50", quantile(late, 0.5), "us", len(late))
	r.set("gen.late_us.p99", quantile(late, 0.99), "us", len(late))
	blk := durations(ol.blkNs, time.Microsecond)
	r.set("serve.submit_block_us.p99", quantile(blk, 0.99), "us", len(blk))
	bs := ol.srv.BatchStats()
	r.set("batch.merge_ratio", bs.MergeRatio(), "ratio", int(bs.Txns))
	r.set("batch.fallback_frac", frac(float64(bs.Fallbacks), float64(bs.Batches)), "ratio", int(bs.Batches))
	st := ol.srv.Runtime().Snapshot().Stats
	r.set("stm.aborts_per_commit", st.AbortRatio(), "ratio", int(st.Commits))
	r.set("stm.cm_wait_ms", float64(st.WaitNs)/1e6, "ms", int(st.Waits))
	return out, nil
}

// rung offers rate requests per second for d, on an arrival schedule
// drawn from the seed, the rate and the cycle, and waits until every
// reply has arrived. It returns the rung's summary and the number of
// requests it issued; the error reports a correctness-gate failure.
func (ol *openLoop) rung(rate float64, d time.Duration, cycle uint64) (rungResult, int, error) {
	capacity := int(rate*d.Seconds()*1.2) + 1024
	ol.recs = make([]reqRec, capacity)
	ol.base = ol.next
	rg := prng.New(ol.e.seed ^ uint64(rate) ^ cycle<<40)
	defer pinPacer()()
	h, rungID := ol.gen.begin(spanRung, 0, -1)

	start := time.Now()
	end := start.Add(d)
	due := start
	n := 0
	var samples []int64
	lastSample := start
	wire := make([]byte, 0, 32)
	for {
		due = due.Add(time.Duration(rg.Exp(rate) * float64(time.Second)))
		if !due.Before(end) || n == len(ol.recs) {
			break
		}
		// Sleep until the next request is due; after a late wake-up
		// every request due by then is released back to back.
		sleepUntil(due)
		now := time.Now()
		if now.Sub(lastSample) >= time.Millisecond {
			samples = append(samples, ol.out.Load())
			lastSample = now
		}
		id := ol.next
		ol.next++
		rec := &ol.recs[n]
		n++
		rec.due, rec.sent = due, now
		req := ol.be.NewRequest(ol.e.seed, uint64(id))
		req.Client = uint32(id)
		wire = serve.AppendRequest(wire[:0], req)
		ol.out.Add(1)
		isRead := req.Op == tmkv.OpRead
		traced := ol.e.tr.sampled(id)
		err := ol.srv.Submit(wire, func(rep serve.Reply) {
			now := time.Now()
			rec.done = now
			rec.aborted = rep.Aborted
			rec.badSum = isRead && rep.Words[tmkv.RepStatus] == tmkv.ReadBadSum
			if w := rec.worker; ol.wl != nil {
				ln := ol.wl[w]
				if ol.pend[w] {
					ol.pend[w] = false
					ln.add(spanCommit, 0, rec.applied, now, 0, -1)
				}
				if traced {
					rid := reqSpanID(id)
					ln.add(spanQueue, 0, rec.enq, rec.firstApply, rid, id)
					ln.add(spanPost, 0, rec.applied, now, rid, id)
					ln.addID(rid, spanRequest, rec.due, now, rungID, id)
				}
			}
			rec.replies.Add(1)
			ol.out.Add(-1)
		})
		rec.ret = time.Now()
		if traced {
			ol.gen.add(spanSubmit, 0, rec.sent, rec.ret, reqSpanID(id), id)
		}
		if err != nil {
			ol.errs.Add(1)
			ol.out.Add(-1)
			rec.replies.Add(1)
			rec.aborted = true
		}
	}
	drainErr := ol.drain()
	ol.gen.end(h)
	rr := rungResult{offered: float64(n) / d.Seconds(), lat: make([]sample, 0, n)}
	if drainErr != nil {
		return rr, n, drainErr
	}
	var last time.Time
	for i := range ol.recs[:n] {
		rec := &ol.recs[i]
		if c := rec.replies.Load(); c != 1 {
			return rr, n, fmt.Errorf("request %d got %d replies, want exactly 1", ol.base+int64(i), c)
		}
		if rec.badSum {
			return rr, n, fmt.Errorf("read request %d saw a checksum mismatch", ol.base+int64(i))
		}
		if rec.aborted {
			ol.ladderFailed++
		}
		rr.lat = append(rr.lat, sample{rec.due.Sub(start), float64(rec.done.Sub(rec.due)) / float64(time.Millisecond)})
		ol.lateNs = append(ol.lateNs, rec.sent.Sub(rec.due).Nanoseconds())
		ol.blkNs = append(ol.blkNs, rec.ret.Sub(rec.sent).Nanoseconds())
		if rec.done.After(last) {
			last = rec.done
		}
	}
	if n > 0 {
		rr.achieved = float64(n) / last.Sub(start).Seconds()
	}
	rr.grew = backlogGrew(samples, int64(ol.e.nproc*kvMergeWidth))
	return rr, n, nil
}

// drainTimeout bounds the wait for outstanding replies; a request
// still unanswered then has lost its reply.
const drainTimeout = 30 * time.Second

// drain waits until every issued request has been answered.
func (ol *openLoop) drain() error {
	deadline := time.Now().Add(drainTimeout)
	for ol.out.Load() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d requests got no reply within %v", ol.out.Load(), drainTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// backlogGrew reports whether the outstanding-request count, sampled
// by the generator, rose over the rung: the mean of the last quarter
// exceeds twice the mean of the first quarter plus one full batch per
// worker.
func backlogGrew(samples []int64, slack int64) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	var first, last int64
	for i := range q {
		first += samples[i]
		last += samples[len(samples)-1-i]
	}
	return last > 2*first+slack*int64(q)
}

// saturate keeps the accept queue full for d — Submit blocks while it
// is — and returns the completed requests per second in each of the
// phase's full windows, the requests issued, and how many were
// refused. The error reports a correctness-gate failure.
func (ol *openLoop) saturate(d time.Duration) ([]float64, int, int, error) {
	ol.recs = nil
	errsBefore := ol.errs.Load()
	h, _ := ol.gen.begin(spanRung, 0, -1)
	defer ol.gen.end(h)
	limit := int(satMaxRPS * d.Seconds())
	doneAt := make([]time.Duration, limit) // completion times since start, in reply order
	var refused, badSum, replies atomic.Int64
	start := time.Now()
	end := start.Add(d)
	wire := make([]byte, 0, 32)
	n := 0
	for ; n < limit && time.Now().Before(end); n++ {
		id := ol.next
		ol.next++
		req := ol.be.NewRequest(ol.e.seed, uint64(id))
		req.Client = uint32(id)
		wire = serve.AppendRequest(wire[:0], req)
		isRead := req.Op == tmkv.OpRead
		ol.out.Add(1)
		err := ol.srv.Submit(wire, func(rep serve.Reply) {
			if rep.Aborted {
				refused.Add(1)
			}
			if isRead && rep.Words[tmkv.RepStatus] == tmkv.ReadBadSum {
				badSum.Add(1)
			}
			doneAt[replies.Add(1)-1] = time.Since(start)
			ol.out.Add(-1)
		})
		if err != nil {
			ol.errs.Add(1)
			ol.out.Add(-1)
		}
	}
	if err := ol.drain(); err != nil {
		return nil, n, 0, err
	}
	if b := badSum.Load(); b > 0 {
		return nil, n, 0, fmt.Errorf("%d saturation reads saw a checksum mismatch", b)
	}
	if got, want := replies.Load(), int64(n)-(ol.errs.Load()-errsBefore); got != want {
		return nil, n, 0, fmt.Errorf("saturation: %d replies to %d queued requests", got, want)
	}
	rates := windowRates(doneAt[:replies.Load()], d)
	if len(rates) == 0 { // a phase shorter than one window
		rates = []float64{float64(replies.Load()) / time.Since(start).Seconds()}
	}
	return rates, n, int(refused.Load()), nil
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// schedParam is the kernel's struct sched_param.
type schedParam struct{ priority int32 }

// Linux scheduling policies.
const (
	schedOther = 0
	schedFIFO  = 1
)

// setSched sets the calling thread's scheduling policy; it returns
// whether the kernel accepted it.
func setSched(policy int, priority int32) bool {
	p := schedParam{priority: priority}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&p)))
	return errno == 0
}

// pinPacer binds the calling goroutine to its OS thread, sets the
// thread's timer slack to 1 ns so sleepUntil wakes within microseconds
// of the due time, and gives the thread a real-time priority so that
// serving workers busy on every core do not delay its wake-up by a
// scheduler time slice. (A Go timer sleep overshoots by about a
// millisecond on Linux, and a time slice is several; either would be
// charged to every request's latency.) The thread only sleeps and
// submits, so the priority takes no time from the server. Where the
// kernel refuses a setting the generator still works, only later, and
// gen.late_us shows it. The returned function restores the thread and
// unpins it.
func pinPacer() (unpin func()) {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	rt := setSched(schedFIFO, 1)
	return func() {
		if rt && !setSched(schedOther, 0) {
			return // keep the thread locked: it exits with the goroutine rather than serve others at real-time priority
		}
		runtime.UnlockOSThread()
	}
}

// sleepUntil blocks the thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
