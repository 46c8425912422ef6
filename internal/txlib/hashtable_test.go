package txlib

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/scenarios/dist"
	"repro/internal/stm"
)

// htChainStats walks every bucket and returns how many chains are
// non-empty and the length of the longest one.
func htChainStats(tx *stm.Tx, ht mem.Addr, mode stm.Acc) (used, longest int) {
	b := tx.LoadAddr(ht+htBuckets, mode)
	n := int(tx.Load(ht+htNBuckets, mode))
	for i := 0; i < n; i++ {
		l := 0
		for e := tx.LoadAddr(b+mem.Addr(i), mode); e != mem.Nil; e = tx.LoadAddr(e+heNext, mode) {
			l++
		}
		if l > 0 {
			used++
		}
		if l > longest {
			longest = l
		}
	}
	return used, longest
}

// TestHashtableBucketSpread inserts the scenario packs' probe keys
// (dist.StackKey: ids with mixed tail words) into power-of-two tables
// and bounds how unevenly they land. A well-mixed bucket index puts
// keys into buckets like balls into bins: at load factor α about
// 1-e^-α of the buckets are used and the longest chain stays in the
// single digits. Hashing the raw low bits of the FNV-style key hash
// instead crowds the keys onto a small fraction of the buckets (8192
// 4-word keys used 469 of 4096 buckets, the longest chain 72).
func TestHashtableBucketSpread(t *testing.T) {
	cases := []struct {
		keys, buckets, words int
		minUsed, maxChain    int
	}{
		{keys: 8192, buckets: 4096, words: 4, minUsed: 3200, maxChain: 12}, // tmkv index
		{keys: 8192, buckets: 4096, words: 2, minUsed: 3200, maxChain: 12},
		{keys: 64, buckets: 64, words: 4, minUsed: 32, maxChain: 6}, // tmmsg topics
		{keys: 64, buckets: 64, words: 2, minUsed: 32, maxChain: 6},
	}
	for _, c := range cases {
		th := newTestRT().Thread(0)
		var ht mem.Addr
		th.Atomic(func(tx *stm.Tx) { ht = NewHashtable(tx, c.buckets) })
		for id := uint64(0); id < uint64(c.keys); id++ {
			th.Atomic(func(tx *stm.Tx) {
				HTInsertIfAbsent(tx, ht, dist.StackKey(tx, id, c.words), c.words, id, TM, stm.AccStack)
			})
		}
		th.Atomic(func(tx *stm.Tx) {
			if got := HTSize(tx, ht, TM); got != c.keys {
				t.Errorf("%d %d-word keys: size = %d", c.keys, c.words, got)
			}
			used, longest := htChainStats(tx, ht, TM)
			t.Logf("%d %d-word keys in %d buckets: %d used, longest chain %d",
				c.keys, c.words, c.buckets, used, longest)
			if used < c.minUsed || longest > c.maxChain {
				t.Errorf("%d %d-word keys in %d buckets: %d used (want ≥ %d), longest chain %d (want ≤ %d)",
					c.keys, c.words, c.buckets, used, c.minUsed, longest, c.maxChain)
			}
		})
	}
}

// TestHashtableDisjointInsertNoConflict pins the header's contract: a
// lookup never conflicts with an insert that touches other buckets. In
// a fixed interleaving T1 looks up key X, stores to an unrelated
// shared word (so it must validate its reads at commit) and parks; T2
// inserts key Y, whose bucket is on a different line from X's, and
// commits; then T1 resumes. T1 must commit on its first attempt — a
// table-wide word written by every insert (an entry count, say) would
// re-version a line T1 read and force a retry.
func TestHashtableDisjointInsertNoConflict(t *testing.T) {
	const nb = 64
	rt := newTestRT()
	var ht, shared mem.Addr
	rt.Thread(0).Atomic(func(tx *stm.Tx) { ht = NewHashtable(tx, nb) })

	// X's bucket lies on neither edge line of the bucket array (those
	// can share a line with neighbouring blocks, such as X's own entry).
	// Y's bucket lies on the first line, the one allocated right after
	// the header, so the insert of Y also checks that the header does
	// not share a line with any bucket.
	line := func(a mem.Addr) mem.Addr { return a / mem.LineWords }
	var x, y uint64
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		b := tx.LoadAddr(ht+htBuckets, TM)
		first, last := line(b), line(b+nb-1)
		bucketLine := func(id uint64) mem.Addr {
			return line(htBucket(tx, ht, HashWords(tx, dist.StackKey(tx, id, 2), 2, stm.AccStack), TM))
		}
		for x = 0; bucketLine(x) == first || bucketLine(x) == last; x++ {
		}
		for y = x + 1; bucketLine(y) != first; y++ {
		}
	})
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		HTInsertIfAbsent(tx, ht, dist.StackKey(tx, x, 2), 2, 7, TM, stm.AccStack)
		blk := tx.Alloc(2*mem.LineWords - 1)
		shared = (blk + mem.LineWords - 1) &^ (mem.LineWords - 1)
	})

	parked, resume, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	attempts := 0
	go func() {
		defer close(done)
		rt.Thread(1).Atomic(func(tx *stm.Tx) {
			attempts++
			if v, ok := HTGet(tx, ht, dist.StackKey(tx, x, 2), 2, TM, stm.AccStack); !ok || v != 7 {
				t.Errorf("get X = %d,%v want 7,true", v, ok)
			}
			tx.Store(shared, tx.Load(shared, TM)+1, TM)
			if attempts == 1 {
				close(parked)
				<-resume
			}
		})
	}()
	<-parked
	rt.Thread(2).Atomic(func(tx *stm.Tx) {
		if !HTInsertIfAbsent(tx, ht, dist.StackKey(tx, y, 2), 2, 9, TM, stm.AccStack) {
			t.Error("insert Y failed")
		}
	})
	close(resume)
	<-done
	if attempts != 1 {
		t.Errorf("lookup of X took %d attempts across a disjoint insert of Y, want 1", attempts)
	}
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		if got := HTSize(tx, ht, TM); got != 2 {
			t.Errorf("size = %d, want 2", got)
		}
	})
}
