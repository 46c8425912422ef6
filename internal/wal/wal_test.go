package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindCommit, Version: 7, GlobalsNext: 100, HeapNext: 2000, Spans: []Span{
			{Addr: 42, Vals: []uint64{1, 2, 3}},
			{Addr: 9000, Vals: []uint64{0xdeadbeef}},
		}},
		{Kind: KindAbort, Version: 9, Spans: []Span{{Addr: 5, Vals: []uint64{0}}}},
		{Kind: KindNonTx, Version: 9, GlobalsNext: 101, Spans: []Span{{Addr: 77, Vals: []uint64{123, 456}}}},
		{Kind: KindSeal, Version: 12, GlobalsNext: 101, HeapNext: 2048},
		{Kind: KindCommit, Version: 13, Spans: []Span{{Addr: 1, Vals: nil}}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	recs := sampleRecords()
	for i := range recs {
		recs[i].Seq = uint64(i)
		buf = AppendRecord(buf, &recs[i])
	}
	var got Record
	off := 0
	for i := range recs {
		n, err := DecodeRecord(buf[off:], &got)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += n
		want := recs[i]
		if got.Kind != want.Kind || got.Seq != want.Seq || got.Version != want.Version ||
			got.GlobalsNext != want.GlobalsNext || got.HeapNext != want.HeapNext ||
			len(got.Spans) != len(want.Spans) {
			t.Fatalf("record %d mismatch: got %+v", i, got)
		}
		for j := range want.Spans {
			if got.Spans[j].Addr != want.Spans[j].Addr ||
				!reflect.DeepEqual(append([]uint64{}, got.Spans[j].Vals...), append([]uint64{}, want.Spans[j].Vals...)) {
				t.Fatalf("record %d span %d: got %+v want %+v", i, j, got.Spans[j], want.Spans[j])
			}
		}
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeTruncationIsTorn(t *testing.T) {
	rec := sampleRecords()[0]
	full := AppendRecord(nil, &rec)
	var out Record
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeRecord(full[:cut], &out); !errors.Is(err, ErrTorn) {
			t.Fatalf("cut %d: got %v, want ErrTorn", cut, err)
		}
	}
	// Flipping a payload byte breaks the CRC, which also reads as torn.
	mut := append([]byte(nil), full...)
	mut[len(mut)-1] ^= 0xff
	if _, err := DecodeRecord(mut, &out); !errors.Is(err, ErrTorn) {
		t.Fatalf("bit flip: got %v, want ErrTorn", err)
	}
}

func TestLogAppendSyncReadBack(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 0, 0, Options{GroupInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	var lastAck Ack
	for i := range recs {
		ack, err := l.Append(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		lastAck = ack
	}
	if err := lastAck.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records != uint64(len(recs)) {
		t.Fatalf("Records = %d, want %d", st.Records, len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&recs[0]); err == nil {
		t.Fatal("append after close succeeded")
	}

	b, err := os.ReadFile(filepath.Join(dir, SegName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:8]) != segMagic {
		t.Fatalf("bad segment magic %q", b[:8])
	}
	var rec Record
	off := segHdrLen
	for i := 0; off < len(b); i++ {
		n, err := DecodeRecord(b[off:], &rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		off += n
	}
}

func TestLogRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 0, 0, Options{SegmentBytes: 256, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Kind: KindCommit, Spans: []Span{{Addr: 1, Vals: make([]uint64, 16)}}}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	seg, off := l.Position()
	if seg == 0 {
		t.Fatalf("expected rotation, still on segment 0 (off %d)", off)
	}
	if err := l.TruncateBefore(seg); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < seg; i++ {
		if _, err := os.Stat(filepath.Join(dir, SegName(i))); !os.IsNotExist(err) {
			t.Fatalf("segment %d survived TruncateBefore(%d)", i, seg)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, SegName(seg))); err != nil {
		t.Fatalf("tail segment missing: %v", err)
	}
}

// writeState drives a log + store pair over a synthetic word image and
// returns the final image.
func writeState(t *testing.T, dir string, spaceWords int) []uint64 {
	t.Helper()
	words := make([]uint64, spaceWords)
	store, err := OpenStore(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(dir, 0, 0, Options{SegmentBytes: 4 << 10, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(seed uint64, n int) *Record {
		rec := &Record{Kind: KindCommit, Version: seed, GlobalsNext: seed, HeapNext: 2 * seed}
		for i := 0; i < n; i++ {
			addr := (seed*31 + uint64(i)*17) % uint64(spaceWords)
			val := seed<<16 | uint64(i)
			words[addr] = val
			rec.Spans = append(rec.Spans, Span{Addr: addr, Vals: []uint64{val}})
		}
		return rec
	}
	for seed := uint64(1); seed <= 50; seed++ {
		if _, err := l.Append(mutate(seed, 8)); err != nil {
			t.Fatal(err)
		}
		if seed == 25 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			cutSeg, cutOff := l.Position()
			if _, err := store.WriteCheckpoint(Snapshot{
				Words:       append([]uint64(nil), words...),
				Clock:       seed,
				GlobalsNext: seed,
				HeapNext:    2 * seed,
				Geometry:    Geometry{GlobalWords: 1, HeapWords: 1, StackWords: 1, MaxThreads: 1},
				CutSeg:      cutSeg,
				CutOff:      cutOff,
			}); err != nil {
				t.Fatal(err)
			}
			if err := l.TruncateBefore(cutSeg); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash: flush but do not seal.
	l.Kill()
	return words
}

func TestRecoverCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	want := writeState(t, dir, 4096)
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Words, want) {
		t.Fatal("recovered words differ from live image")
	}
	if st.Clock != 50 || st.GlobalsNext != 50 || st.HeapNext != 100 {
		t.Fatalf("metadata: clock=%d gn=%d hn=%d", st.Clock, st.GlobalsNext, st.HeapNext)
	}
	if st.Records == 0 || st.Truncated {
		t.Fatalf("records=%d truncated=%v", st.Records, st.Truncated)
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	writeState(t, dir, 4096)

	// Chop bytes off the last segment, mid-record.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lastSeg uint64
	found := false
	for _, e := range entries {
		var n uint64
		if matchName(e.Name(), "seg-%08d.wal", &n) {
			if !found || n > lastSeg {
				lastSeg = n
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no segments on disk")
	}
	path := filepath.Join(dir, SegName(lastSeg))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	if !st.Truncated {
		t.Fatal("recovery did not report truncation")
	}
	// Recovery must be repeatable: the torn record is gone now.
	st2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Truncated {
		t.Fatal("second recovery still sees a torn tail")
	}
	if !reflect.DeepEqual(st.Words, st2.Words) {
		t.Fatal("recover-after-truncate changed state")
	}
}

func TestRecoverNoCheckpoint(t *testing.T) {
	if _, err := Recover(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint", err)
	}
}

func TestCheckpointDedup(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, 256)
	for i := range words {
		words[i] = uint64(i)
	}
	snap := Snapshot{Words: words, Geometry: Geometry{GlobalWords: 1, HeapWords: 1, StackWords: 1, MaxThreads: 1}}
	if _, err := store.WriteCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	first := store.Stats()
	if first.ChunksWritten == 0 {
		t.Fatal("first checkpoint wrote nothing")
	}
	words[3] = 0xabcdef // dirty exactly one chunk
	if _, err := store.WriteCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	second := store.Stats()
	if w := second.ChunksWritten - first.ChunksWritten; w != 1 {
		t.Fatalf("second checkpoint wrote %d chunks, want 1", w)
	}
	if second.ChunksDeduped == first.ChunksDeduped {
		t.Fatal("second checkpoint deduped nothing")
	}

	// A store reopened on the same dir dedups against disk state.
	store2, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store2.WriteCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	if st := store2.Stats(); st.ChunksWritten != 0 {
		t.Fatalf("reopened store rewrote %d chunks", st.ChunksWritten)
	}
}

// segmentSeqs decodes segment idx in dir and returns the seqs of its
// complete records; a torn final frame (a write still in flight) ends
// the scan.
func segmentSeqs(t *testing.T, dir string, idx uint64) []uint64 {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, SegName(idx)))
	if err != nil {
		t.Errorf("segment %d: %v", idx, err)
		return nil
	}
	if len(b) < segHdrLen || string(b[:8]) != segMagic {
		t.Errorf("segment %d: bad header", idx)
		return nil
	}
	var seqs []uint64
	var rec Record
	for off := segHdrLen; off < len(b); {
		n, err := DecodeRecord(b[off:], &rec)
		if err != nil {
			break
		}
		seqs = append(seqs, rec.Seq)
		off += n
	}
	return seqs
}

// TestLogAckMeansWritten stresses the leader/follower handshake: after
// every Wait the record's bytes are already in its segment file, even
// when batches span segment rotations, and the log decodes to one
// gap-free seq run once closed.
func TestLogAckMeansWritten(t *testing.T) {
	const goroutines, perG = 8, 500
	for _, tc := range []struct {
		name  string
		group time.Duration
	}{{"eager", 0}, {"linger", time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenLog(dir, 0, 0, Options{SegmentBytes: 4096, NoFsync: true, GroupInterval: tc.group})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						// Mixed sizes: 1 to 40 words of payload.
						rec := Record{Kind: KindCommit, Spans: []Span{{Addr: uint64(g), Vals: make([]uint64, 1+(g*perG+i)%40)}}}
						// The record lands in a segment between the tails
						// seen just before and just after its Append.
						lo, _ := l.Position()
						ack, err := l.Append(&rec)
						if err != nil {
							t.Error(err)
							return
						}
						hi, _ := l.Position()
						if err := ack.Wait(); err != nil {
							t.Error(err)
							return
						}
						found := false
						for idx := lo; idx <= hi && !found; idx++ {
							for _, s := range segmentSeqs(t, dir, idx) {
								if s == rec.Seq {
									found = true
									break
								}
							}
						}
						if !found {
							t.Errorf("seq %d acked but not in segments %d..%d", rec.Seq, lo, hi)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			st := l.Stats()
			if st.Records != goroutines*perG || st.Segments < 2 {
				t.Fatalf("stats %+v: want %d records over several segments", st, goroutines*perG)
			}
			var want uint64
			for idx := uint64(0); idx < st.Segments; idx++ {
				for _, s := range segmentSeqs(t, dir, idx) {
					if s != want {
						t.Fatalf("segment %d: seq %d, want %d", idx, s, want)
					}
					want++
				}
			}
			if want != st.Records {
				t.Fatalf("decoded %d records, want %d", want, st.Records)
			}
			if tc.group > 0 && st.Batches >= st.Records {
				t.Fatalf("lingering leaders wrote %d batches for %d records", st.Batches, st.Records)
			}
		})
	}
}

// TestLogWriteErrorIsNeverAcked closes the tail segment's file under
// the log: every later write fails, and no Wait, Sync or Close may
// report success or hang.
func TestLogWriteErrorIsNeverAcked(t *testing.T) {
	l, err := OpenLog(t.TempDir(), 0, 0, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Kind: KindCommit, Spans: []Span{{Addr: 1, Vals: []uint64{1, 2}}}}
	ack, err := l.Append(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ack.Wait(); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.segs[len(l.segs)-1].file.Close()
	l.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					r := rec
					ack, err := l.Append(&r)
					if err != nil {
						continue // rejected outright: not an ack either
					}
					if err := ack.Wait(); err == nil {
						t.Errorf("seq %d acked after its write failed", r.Seq)
					}
				}
			}()
		}
		wg.Wait()
		if err := l.Sync(); err == nil {
			t.Error("Sync succeeded after a failed write")
		}
		if err := l.Close(); err == nil {
			t.Error("Close succeeded after a failed write")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Append/Wait/Sync/Close hung after a failed write")
	}
}

// BenchmarkLogAppendWait measures the commit handshake alone: parallel
// Append+Wait of ~1.5 KB records without fsync.
func BenchmarkLogAppendWait(b *testing.B) {
	l, err := OpenLog(b.TempDir(), 0, 0, Options{NoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]uint64, 186)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rec := Record{Kind: KindCommit, Spans: []Span{{Addr: 1, Vals: vals}}}
		for i := 1; pb.Next(); i++ {
			ack, err := l.Append(&rec)
			if err == nil {
				err = ack.Wait()
			}
			if err != nil {
				b.Error(err)
				return
			}
			// Keep the disk footprint to a couple of segments.
			if i%4096 == 0 {
				seg, _ := l.Position()
				if err := l.TruncateBefore(seg); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	b.StopTimer()
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
}
