package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/scenarios/tmkv"
	"repro/tm"
	"repro/tm/serve"
)

// durableKeys enlarges the tmkv-write key space so the live data
// (half the keys preloaded, 2–6 blocks of 32 words per value, up to
// two versions) exceed a core's 4 MiB L2 and the 2^18 words the
// default ownership-record table covers one to one.
const durableKeys = 1 << 13

// durableHeapWords sizes the heap of kv-durable: above the ~5.1M
// words every key holding two six-block versions would take, below the
// backend's default (which doubles that), because every checkpoint
// copies and hashes the whole space.
const durableHeapWords = 1 << 23

// durableMix is the write-heavy tmkv blend (tmkv-write: 10% read, 40%
// upsert, 25% insert, 20% delete, 5% scan, uniform keys) over the
// enlarged key space.
func durableMix(seed uint64) tmkv.Config {
	c := tmkv.WriteHeavy()
	c.Name = kvDurable
	c.Keys = durableKeys
	c.Seed = seed
	return c
}

// durOpts is the flush policy both durable sides of a comparison use:
// group commit, one write per batch, no fsync, no linger.
func durOpts(dir string) tm.Option { return tm.WithDurability(dir, tm.DurNoFsync()) }

const durFlushPolicy = "group commit, write per batch, no fsync, no linger"

// kvSetup opens a tmkv runtime over cfg and populates it. With a
// directory it is durable, and the initial checkpoint after the
// (journaled) preload is part of the set-up.
func kvSetup(cfg tmkv.Config, nproc int, dir string) (*tmkv.KVBackend, *tm.Runtime, error) {
	be := tmkv.NewKVBackend(cfg)
	mc := be.MemConfig(nproc, 0)
	mc.HeapWords = durableHeapWords
	opts := []tm.Option{tm.WithMemory(mc)}
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, fmt.Errorf("clear %s: %w", dir, err)
		}
		opts = append(opts, durOpts(dir))
	}
	rt, err := openRuntime(profile(), opts...)
	if err != nil {
		return nil, nil, err
	}
	be.Setup(rt)
	if err := rt.Checkpoint(); err != nil {
		rt.Close()
		return nil, nil, fmt.Errorf("initial checkpoint: %w", err)
	}
	return be, rt, nil
}

// runKVDurable runs nproc closed-loop callers, one tmkv request per
// Thread.Atomic, against a durable runtime, then ends with Checkpoint →
// Crash → tm.Recover and checks that recovery restores the state every
// acknowledged operation left.
func runKVDurable(e env) (outcome, error) {
	out := outcome{r: results{}}
	ml := e.tr.lane()
	cfg := durableMix(e.seed)
	e.st.FlushPolicy = durFlushPolicy

	var setups []float64
	var be *tmkv.KVBackend
	var rt *tm.Runtime
	var dir string
	for k := range setupReps {
		if rt != nil {
			if err := rt.Close(); err != nil {
				return out, fmt.Errorf("close runtime: %w", err)
			}
			os.RemoveAll(dir)
			debug.FreeOSMemory() // start the next repetition from memory returned to the OS, like a fresh process
		}
		dir = filepath.Join(e.scratch, fmt.Sprintf("kv-durable-%d-%d", os.Getpid(), k))
		t0 := time.Now()
		var err error
		be, rt, err = kvSetup(cfg, e.nproc, dir)
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		ml.add(spanSetup, 0, t0, t1, 0, -1)
		setups = append(setups, t1.Sub(t0).Seconds())
	}
	defer os.RemoveAll(dir)
	e.st.Engine = rt.Engine()

	pre := rt.Snapshot()
	before := readGoCounters()
	h, runID := ml.begin(spanRun, 0, -1)
	res, err := closedLoop(rt, be, e.seed, e.nproc, e.budget, 0, e.tr, runID, kvCheck)
	ml.end(h)
	goDelta(out.r, before, readGoCounters(), res.ops)
	out.attempted, out.failed = res.ops, res.failed
	if err != nil {
		rt.Close()
		return out, err
	}
	h, _ = ml.begin(spanValidate, 0, -1)
	err = validateOrecs(rt)
	want := rt.Unwrap().Space().Checksum()
	ml.end(h)
	if err != nil {
		rt.Close()
		return out, err
	}
	post := rt.Snapshot()

	t0 := time.Now()
	if err := rt.Checkpoint(); err != nil {
		rt.Close()
		return out, fmt.Errorf("final checkpoint: %w", err)
	}
	t1 := time.Now()
	ml.add(spanCheckpoint, 0, t0, t1, 0, -1)
	cp := rt.Snapshot().Durability
	h, _ = ml.begin(spanCrash, 0, -1)
	rt.Crash()
	ml.end(h)
	rt = nil
	debug.FreeOSMemory() // recovery runs as in a fresh process, without the crashed runtime's memory
	h, _ = ml.begin(spanRecover, 0, -1)
	recoverS, err := verifyRecovery(dir, want)
	ml.end(h)
	if err != nil {
		return out, err
	}

	r := out.r
	r.set("setup_s", median(setups), "s", len(setups))
	res.report(r, e.budget)
	r.set("recover_s", recoverS, "s", 1)

	st := post.Stats
	st.Commits -= pre.Stats.Commits
	st.Aborts -= pre.Stats.Aborts
	r.set("stm.aborts_per_commit", st.AbortRatio(), "ratio", int(st.Commits))
	r.set("stm.cm_wait_ms", float64(post.Stats.WaitNs-pre.Stats.WaitNs)/1e6, "ms", int(post.Stats.Waits-pre.Stats.Waits))
	d0, d1 := pre.Durability, post.Durability
	recs := float64(d1.Records - d0.Records)
	bytes := float64(d1.LogBytes - d0.LogBytes)
	r.set("wal.commits_per_batch", frac(recs, float64(d1.Batches-d0.Batches)), "count", int(d1.Batches-d0.Batches))
	r.set("wal.bytes_per_commit", frac(bytes, recs), "B", int(recs))
	r.set("wal.tail_mb", bytes/(1<<20), "MiB", 1)
	r.set("wal.checkpoint_s", t1.Sub(t0).Seconds(), "s", 1)
	chunks := float64(cp.ChunksWritten - d1.ChunksWritten + cp.ChunksDeduped - d1.ChunksDeduped)
	r.set("wal.dedup_frac", frac(float64(cp.ChunksDeduped-d1.ChunksDeduped), chunks), "ratio", int(chunks))

	if e.probes {
		// Durability-off twin on the same seed for wal.slowdown.
		be, rt, err := kvSetup(cfg, e.nproc, "")
		if err != nil {
			return out, err
		}
		off, err := closedLoop(rt, be, e.seed, e.nproc, e.budget, 0, nil, 0, kvCheck)
		rt.Close()
		if err != nil {
			return out, err
		}
		offR := results{}
		off.report(offR, e.budget)
		r.set("wal.slowdown", offR["ops_per_s"].v/r["ops_per_s"].v, "ratio", 2)
	}
	return out, nil
}

// verifyRecovery recovers the crashed runtime in dir, checks that its
// space checksum equals want, closes it, and returns how long tm.Recover
// took to hand back a usable runtime.
func verifyRecovery(dir string, want uint64) (float64, error) {
	t0 := time.Now()
	rt, err := tm.Recover(dir, append(profile().Options(), durOpts(dir))...)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	got := rt.Unwrap().Space().Checksum()
	err = validateOrecs(rt)
	if cerr := rt.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close recovered runtime: %w", cerr)
	}
	if err == nil && got != want {
		err = fmt.Errorf("recovered checksum %#x, want %#x (state before the crash)", got, want)
	}
	return d.Seconds(), err
}

// kvCheck judges one tmkv reply: no read may see a checksum mismatch.
func kvCheck(req serve.Request, words []uint64) error {
	if req.Op == tmkv.OpRead && words[tmkv.RepStatus] == tmkv.ReadBadSum {
		return fmt.Errorf("read of key %d: stored checksum does not match its blocks", req.Key)
	}
	return nil
}
