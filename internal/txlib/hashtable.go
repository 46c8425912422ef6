package txlib

import (
	"repro/internal/mem"
	"repro/internal/stm"
)

// Hashtable is a chained hash table keyed by arbitrary word sequences
// stored in simulated memory (STAMP's hashtable.c, as used by genome's
// segment-deduplication phase). The bucket count is fixed at creation.
//
// Layout:
//
//	header: [0] buckets ptr  [1] nbuckets
//	entry:  [0] next  [1] hash  [2] keyPtr  [3] keyWords  [4] data
//
// The header is written only by NewHashtable and sits alone on its
// cache line, so no insert or remove re-versions the orec line that
// every operation reads. For the same reason there is no size word: a
// shared count would be a read-modify-write on one line in every insert
// and remove. HTSize walks the chains instead and is O(n), meant for
// validation.
const (
	htBuckets  = 0
	htNBuckets = 1

	heNext     = 0
	heHash     = 1
	heKeyPtr   = 2
	heKeyWords = 3
	heData     = 4
	heSize     = 5
)

// NewHashtable allocates a table with nbuckets chains. The returned
// header address is line-aligned inside a block padded to hold a whole
// line, so no other object shares the header's orec line. Tables are
// never freed, so the block start need not be recoverable.
func NewHashtable(tx *stm.Tx, nbuckets int) mem.Addr {
	blk := tx.Alloc(2*mem.LineWords - 1)
	ht := (blk + mem.LineWords - 1) &^ (mem.LineWords - 1)
	b := tx.Alloc(nbuckets)
	// The bucket array is freshly allocated: its initializing state is
	// already zero (empty chains), so only the header needs stores.
	tx.StoreAddr(ht+htBuckets, b, stm.AccFresh)
	tx.Store(ht+htNBuckets, uint64(nbuckets), stm.AccFresh)
	return ht
}

// HashWords computes the hash of a key already resident in simulated
// memory, reading it transactionally with the given mode (the key
// buffer is typically transaction-local, so these reads are captured).
func HashWords(tx *stm.Tx, key mem.Addr, words int, mode stm.Acc) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < words; i++ {
		h = (h ^ tx.Load(key+mem.Addr(i), mode)) * 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// mix64 is MurmurHash3's 64-bit finalizer. FNV-style hashes such as
// HashWords carry little entropy in their low bits, so taking them
// modulo a power-of-two bucket count piles keys onto a few chains;
// mixing first spreads every input bit over the bucket index.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb3fe1a85ec53
	h ^= h >> 33
	return h
}

func htBucket(tx *stm.Tx, ht mem.Addr, hash uint64, mode stm.Acc) mem.Addr {
	b := tx.LoadAddr(ht+htBuckets, mode)
	n := tx.Load(ht+htNBuckets, mode)
	return b + mem.Addr(mix64(hash)%n)
}

// keyEqual compares an entry's stored key with the probe key.
func keyEqual(tx *stm.Tx, entry mem.Addr, key mem.Addr, words int, mode, keyMode stm.Acc) bool {
	if int(tx.Load(entry+heKeyWords, mode)) != words {
		return false
	}
	kp := tx.LoadAddr(entry+heKeyPtr, mode)
	for i := 0; i < words; i++ {
		if tx.Load(kp+mem.Addr(i), mode) != tx.Load(key+mem.Addr(i), keyMode) {
			return false
		}
	}
	return true
}

// HTInsertIfAbsent inserts (key, data) unless an equal key is already
// present. The key is copied into a freshly allocated buffer owned by
// the table. keyMode tags accesses to the caller's key buffer (usually
// transaction-local). Returns true if inserted.
func HTInsertIfAbsent(tx *stm.Tx, ht mem.Addr, key mem.Addr, words int, data uint64, mode, keyMode stm.Acc) bool {
	hash := HashWords(tx, key, words, keyMode)
	slot := htBucket(tx, ht, hash, mode)
	for e := tx.LoadAddr(slot, mode); e != mem.Nil; e = tx.LoadAddr(e+heNext, mode) {
		if tx.Load(e+heHash, mode) == hash && keyEqual(tx, e, key, words, mode, keyMode) {
			return false
		}
	}
	kp := tx.Alloc(words)
	for i := 0; i < words; i++ {
		tx.Store(kp+mem.Addr(i), tx.Load(key+mem.Addr(i), keyMode), stm.AccFresh)
	}
	e := tx.Alloc(heSize)
	tx.StoreAddr(e+heNext, tx.LoadAddr(slot, mode), stm.AccFresh)
	tx.Store(e+heHash, hash, stm.AccFresh)
	tx.StoreAddr(e+heKeyPtr, kp, stm.AccFresh)
	tx.Store(e+heKeyWords, uint64(words), stm.AccFresh)
	tx.Store(e+heData, data, stm.AccFresh)
	tx.StoreAddr(slot, e, mode)
	return true
}

// HTRemove unlinks the entry with an equal key, frees the entry and
// its owned key copy, and returns the data word that was stored.
func HTRemove(tx *stm.Tx, ht mem.Addr, key mem.Addr, words int, mode, keyMode stm.Acc) (uint64, bool) {
	hash := HashWords(tx, key, words, keyMode)
	slot := htBucket(tx, ht, hash, mode)
	prevSlot := slot
	for e := tx.LoadAddr(prevSlot, mode); e != mem.Nil; e = tx.LoadAddr(prevSlot, mode) {
		if tx.Load(e+heHash, mode) == hash && keyEqual(tx, e, key, words, mode, keyMode) {
			data := tx.Load(e+heData, mode)
			tx.StoreAddr(prevSlot, tx.LoadAddr(e+heNext, mode), mode)
			tx.Free(tx.LoadAddr(e+heKeyPtr, mode))
			tx.Free(e)
			return data, true
		}
		prevSlot = e + heNext
	}
	return 0, false
}

// HTGet returns the data stored under key.
func HTGet(tx *stm.Tx, ht mem.Addr, key mem.Addr, words int, mode, keyMode stm.Acc) (uint64, bool) {
	hash := HashWords(tx, key, words, keyMode)
	slot := htBucket(tx, ht, hash, mode)
	for e := tx.LoadAddr(slot, mode); e != mem.Nil; e = tx.LoadAddr(e+heNext, mode) {
		if tx.Load(e+heHash, mode) == hash && keyEqual(tx, e, key, words, mode, keyMode) {
			return tx.Load(e+heData, mode), true
		}
	}
	return 0, false
}

// HTContains reports whether key is present.
func HTContains(tx *stm.Tx, ht mem.Addr, key mem.Addr, words int, mode, keyMode stm.Acc) bool {
	_, ok := HTGet(tx, ht, key, words, mode, keyMode)
	return ok
}

// HTSize returns the number of entries by walking every chain: O(n +
// nbuckets) reads, for validation and tests only.
func HTSize(tx *stm.Tx, ht mem.Addr, mode stm.Acc) int {
	n := 0
	HTForEach(tx, ht, mode, func(mem.Addr, int, uint64) bool {
		n++
		return true
	})
	return n
}

// HTForEach visits every entry in unspecified order.
func HTForEach(tx *stm.Tx, ht mem.Addr, mode stm.Acc, fn func(keyPtr mem.Addr, keyWords int, data uint64) bool) {
	b := tx.LoadAddr(ht+htBuckets, mode)
	n := int(tx.Load(ht+htNBuckets, mode))
	for i := 0; i < n; i++ {
		for e := tx.LoadAddr(b+mem.Addr(i), mode); e != mem.Nil; e = tx.LoadAddr(e+heNext, mode) {
			if !fn(tx.LoadAddr(e+heKeyPtr, mode), int(tx.Load(e+heKeyWords, mode)), tx.Load(e+heData, mode)) {
				return
			}
		}
	}
}
