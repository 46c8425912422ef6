package main

import (
	"fmt"
	"time"

	"repro/internal/scenarios/tmkv"
	"repro/internal/scenarios/tmmsg"
	"repro/tm"
)

// Each access-ladder transaction walks a block of ladderWords words
// ladderPasses times, so the transaction's begin, commit and block
// allocation are amortized over ladderWords × ladderPasses accesses.
const (
	ladderWords  = 512
	ladderPasses = 8
)

// ladderSink keeps the ladder's loads live.
var ladderSink uint64

// accessLadder measures the ROADMAP's cost ladder for one access under
// the workload profile: loop time ÷ accesses over typed references of
// each provenance. full_bare runs on the profile without the
// compiler-elision prologue.
func accessLadder(r results) error {
	rt, err := openRuntime(profile())
	if err != nil {
		return err
	}
	defer rt.Close()
	bare, err := openRuntime(bareProfile())
	if err != nil {
		return err
	}
	defer bare.Close()
	shared := rt.AllocGlobal(ladderWords).WithProv(tm.ProvUnknown)
	sharedBare := bare.AllocGlobal(ladderWords).WithProv(tm.ProvUnknown)
	th, thBare := rt.Thread(0), bare.Thread(0)

	load := func(tx *tm.Tx, s tm.Struct) {
		var acc uint64
		for range ladderPasses {
			for i := range ladderWords {
				acc += s.Word(i).Load(tx)
			}
		}
		ladderSink += acc
	}
	store := func(tx *tm.Tx, s tm.Struct) {
		for p := range ladderPasses {
			for i := range ladderWords {
				s.Word(i).Store(tx, uint64(p+i))
			}
		}
	}
	inTx := func(th *tm.Thread, body func(tx *tm.Tx)) func() {
		return func() { th.Atomic(body) }
	}
	// onFresh runs op over a block the transaction allocates (and
	// frees again, so the loop does not exhaust the heap), seen with
	// the given provenance.
	onFresh := func(op func(*tm.Tx, tm.Struct), p tm.Prov) func() {
		return inTx(th, func(tx *tm.Tx) {
			blk := tx.Alloc(ladderWords)
			op(tx, blk.WithProv(p))
			tx.Free(blk)
		})
	}
	space := rt.Unwrap().Space()
	base := shared.Addr()
	rungs := []struct {
		name string
		fn   func()
	}{
		{"stm.load_ns.space", func() {
			var acc uint64
			for range ladderPasses {
				for i := range ladderWords {
					acc += space.Load(base + tm.Addr(i))
				}
			}
			ladderSink += acc
		}},
		{"stm.load_ns.static", onFresh(load, tm.ProvFresh)},
		{"stm.load_ns.stack", inTx(th, func(tx *tm.Tx) { load(tx, tx.StackAlloc(ladderWords).WithProv(tm.ProvUnknown)) })},
		{"stm.load_ns.heap", onFresh(load, tm.ProvUnknown)},
		{"stm.load_ns.full_bare", inTx(thBare, func(tx *tm.Tx) { load(tx, sharedBare) })},
		{"stm.load_ns.full", inTx(th, func(tx *tm.Tx) { load(tx, shared) })},
		{"stm.store_ns.static", onFresh(store, tm.ProvFresh)},
		{"stm.store_ns.heap", onFresh(store, tm.ProvUnknown)},
		{"stm.store_ns.full", inTx(th, func(tx *tm.Tx) { store(tx, shared) })},
	}
	const reps, repTime = 5, 20 * time.Millisecond
	for _, rung := range rungs {
		var per []float64
		for range reps {
			n := 0
			t0 := time.Now()
			for time.Since(t0) < repTime {
				rung.fn()
				n++
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n*ladderWords*ladderPasses))
		}
		r.set(rung.name, median(per), "ns", reps)
	}
	return nil
}

// twinOps is the operation count of the counting twins.
const twinOps = 8192

// captureTwin runs the workload's operations once more on one thread
// under the counting profile and reports the exact barrier counts:
// the share of read and write barriers elided (statically or by the
// runtime capture checks) and the full barriers per operation.
func captureTwin(workload string, seed uint64, r results) error {
	var st tm.Stats
	switch workload {
	case msgClosed:
		cfg := msgConfig(seed)
		cfg.Ops = twinOps
		w := tmmsg.New(cfg)
		rt, err := openRuntime(countingProfile(), tm.WithMemory(w.MemConfig()))
		if err != nil {
			return err
		}
		w.Setup(rt)
		rt.ResetStats()
		w.Run(rt, 1)
		err = w.Validate(rt)
		st = rt.Snapshot().Stats
		rt.Close()
		if err != nil {
			return fmt.Errorf("counting twin: %w", err)
		}
	default:
		cfg := openMix(seed)
		if workload == kvDurable {
			cfg = durableMix(seed)
		}
		be := tmkv.NewKVBackend(cfg)
		rt, err := openRuntime(countingProfile(), tm.WithMemory(be.MemConfig(1, twinOps)))
		if err != nil {
			return err
		}
		be.Setup(rt)
		rt.ResetStats()
		_, err = closedLoop(rt, be, seed, 1, time.Hour, twinOps, nil, 0, kvCheck)
		st = rt.Snapshot().Stats
		rt.Close()
		if err != nil {
			return fmt.Errorf("counting twin: %w", err)
		}
	}
	r.set("capture.read_elided_frac", frac(float64(st.ReadElided()), float64(st.ReadTotal)), "ratio", int(st.ReadTotal))
	r.set("capture.write_elided_frac", frac(float64(st.WriteElided()), float64(st.WriteTotal)), "ratio", int(st.WriteTotal))
	r.set("capture.full_barriers_per_op", float64(st.ReadFull+st.WriteFull)/twinOps, "count", twinOps)
	return nil
}
