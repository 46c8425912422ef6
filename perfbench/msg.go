package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/scenarios/tmmsg"
	"repro/tm"
	"repro/tm/serve"
)

// msgOpsPerRound sizes one msg-closed round: enough operations that a
// round runs for a good part of a second on two cores.
const msgOpsPerRound = 1 << 14

// msgConfig is the tmmsg balanced broker mix (40% batch publish, 30%
// consume, 20% ack, 10% lag scan; Zipf 0.85 over 64 topics) under the
// benchmark's seed.
func msgConfig(seed uint64) tmmsg.Config {
	c := tmmsg.Mixed()
	c.Name = msgClosed
	c.Ops = msgOpsPerRound
	c.Seed = seed
	return c
}

// runMsgClosed measures the broker mix two ways. Rounds of the
// tm.Workload (fresh Open + Setup, Run on nproc threads, Validate)
// give setup_s (median over rounds) and ops_per_s (rateOf over rounds). A closed loop of
// nproc callers over the same mix, one request per Thread.Atomic
// through the srv-tmmsg backend's Item(req).Apply, gives per-operation
// latency (tm.Workload.Run does not expose single operations).
func runMsgClosed(e env) (outcome, error) {
	out := outcome{r: results{}}
	ml := e.tr.lane()
	cfg := msgConfig(e.seed)
	roundsUntil := time.Now().Add(e.budget * 7 / 10)

	var setups, rates []float64
	var stats tm.Stats
	var gc goCounters // Go runtime cost of the Run phases
	for round := 0; round < 3 || time.Now().Before(roundsUntil); round++ {
		t0 := time.Now()
		w := tmmsg.New(cfg)
		rt, err := openRuntime(profile(), tm.WithMemory(w.MemConfig()))
		if err != nil {
			return out, err
		}
		w.Setup(rt)
		t1 := time.Now()
		rt.ResetStats()
		before := readGoCounters()
		w.Run(rt, e.nproc)
		t2 := time.Now()
		gc.add(before, readGoCounters())
		verr := w.Validate(rt)
		if verr == nil {
			verr = validateOrecs(rt)
		}
		t3 := time.Now()
		snap := rt.Snapshot()
		e.st.Engine = snap.Engine
		stats.Add(&snap.Stats)
		if err := rt.Close(); err != nil {
			return out, fmt.Errorf("close runtime: %w", err)
		}
		ml.add(spanSetup, 0, t0, t1, 0, -1)
		ml.add(spanRun, 0, t1, t2, 0, -1)
		ml.add(spanValidate, 0, t2, t3, 0, -1)
		if verr != nil {
			return out, fmt.Errorf("round %d: %w", round, verr)
		}
		runtime.GC() // the next round reuses this one's memory: rounds measure the program, not page faults
		setups = append(setups, t1.Sub(t0).Seconds())
		rates = append(rates, float64(cfg.Ops)/t2.Sub(t1).Seconds())
		out.attempted += cfg.Ops
	}
	goDelta(out.r, goCounters{}, gc, out.attempted)
	out.r.set("setup_s", median(setups), "s", len(setups))
	out.r.set("ops_per_s", rateOf(rates), "ops/s", len(rates))
	out.r.set("stm.aborts_per_commit", stats.AbortRatio(), "ratio", int(stats.Commits))
	out.r.set("stm.cm_wait_ms", float64(stats.WaitNs)/1e6, "ms", int(stats.Waits))

	be := tmmsg.NewMsgBackend(cfg)
	rt, err := openRuntime(profile(), tm.WithMemory(be.MemConfig(e.nproc, churnHint)))
	if err != nil {
		return out, err
	}
	be.Setup(rt)
	h, runID := ml.begin(spanRun, 0, -1)
	res, err := closedLoop(rt, be, e.seed, e.nproc, e.budget*3/10, 0, e.tr, runID, msgCheck)
	ml.end(h)
	if err == nil {
		err = validateOrecs(rt)
	}
	if cerr := rt.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close runtime: %w", cerr)
	}
	if err != nil {
		return out, err
	}
	out.attempted += res.ops
	out.failed += res.failed
	ops := out.r["ops_per_s"]
	res.report(out.r, e.budget*3/10)
	out.r["ops_per_s"] = ops // the rounds' figure; the loop gives latency
	return out, nil
}

// msgCheck judges one srv-tmmsg reply: a publish links every message
// it was asked to, a consume sees no payload checksum mismatch.
func msgCheck(req serve.Request, words []uint64) error {
	switch req.Op {
	case tmmsg.OpPublish:
		if want := max(req.Arg, 1); words[tmmsg.RepA] != want {
			return fmt.Errorf("publish linked %d of %d messages", words[tmmsg.RepA], want)
		}
	case tmmsg.OpConsume:
		if bad := words[tmmsg.RepB] & 0xff; bad != 0 {
			return fmt.Errorf("consume saw %d payload checksum mismatches", bad)
		}
	}
	return nil
}
