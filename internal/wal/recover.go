package wal

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ErrNoCheckpoint means the directory holds no loadable checkpoint
// manifest. Durable runtimes write an initial checkpoint at open, so a
// directory that ever hosted one always recovers.
var ErrNoCheckpoint = errors.New("wal: no usable checkpoint manifest")

// RecoveredState is the outcome of Recover: the reconstructed word
// image plus everything a runtime needs to resume appending.
type RecoveredState struct {
	Words       []uint64
	Clock       uint64
	GlobalsNext uint64
	HeapNext    uint64
	Geometry    Geometry
	// NextSeg/NextSeq are where a re-opened log should continue.
	NextSeg uint64
	NextSeq uint64
	// CheckpointSeq is the manifest the recovery started from; Records
	// counts redo records replayed on top of it. Truncated reports that
	// a torn final record was cut off the last segment.
	CheckpointSeq uint64
	Records       uint64
	Truncated     bool
}

// Recover rebuilds state from dir: load the newest manifest whose
// chunks resolve and whose checksum verifies, then replay every redo
// record at or after its log cut, in segment order. A decode failure in
// the final segment is a torn tail — the file is truncated at the last
// good record and recovery succeeds; a failure anywhere else is
// corruption and recovery fails.
func Recover(dir string) (*RecoveredState, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var cps []uint64
	for _, e := range entries {
		var n uint64
		if matchName(e.Name(), "cp-%08d.json", &n) {
			cps = append(cps, n)
		}
	}
	if len(cps) == 0 {
		return nil, ErrNoCheckpoint
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i] > cps[j] })

	store, err := OpenStore(dir, 0)
	if err != nil {
		return nil, err
	}
	var m *Manifest
	var words []uint64
	var lastErr error
	for _, n := range cps {
		cand, w, err := loadManifest(dir, store, n)
		if err != nil {
			lastErr = err
			continue
		}
		m, words = cand, w
		break
	}
	if m == nil {
		return nil, fmt.Errorf("%w (last error: %v)", ErrNoCheckpoint, lastErr)
	}

	st := &RecoveredState{
		Words:         words,
		Clock:         m.Clock,
		GlobalsNext:   m.GlobalsNext,
		HeapNext:      m.HeapNext,
		Geometry:      m.Geometry,
		NextSeg:       m.CutSeg,
		CheckpointSeq: m.Seq,
	}
	if err := st.replayTail(dir, m); err != nil {
		return nil, err
	}
	return st, nil
}

func loadManifest(dir string, store *CheckpointStore, n uint64) (*Manifest, []uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName(n)))
	if err != nil {
		return nil, nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, nil, fmt.Errorf("manifest %d: %w", n, err)
	}
	if m.Format != manifestKind {
		return nil, nil, fmt.Errorf("manifest %d: unknown format %q", n, m.Format)
	}
	if m.SpaceWords < 0 || m.ChunkWords <= 0 {
		return nil, nil, fmt.Errorf("manifest %d: bad dimensions", n)
	}
	words := make([]uint64, 0, m.SpaceWords)
	for i, hs := range m.Scores {
		raw, err := hex.DecodeString(hs)
		if err != nil || len(raw) != scoreLen {
			return nil, nil, fmt.Errorf("manifest %d: bad score %d", n, i)
		}
		var sc Score
		copy(sc[:], raw)
		chunk, err := store.ReadChunk(sc)
		if err != nil {
			return nil, nil, fmt.Errorf("manifest %d: %w", n, err)
		}
		words = append(words, chunk...)
	}
	if len(words) != m.SpaceWords {
		return nil, nil, fmt.Errorf("manifest %d: chunks sum to %d words, want %d", n, len(words), m.SpaceWords)
	}
	if sum := fnvWords(words); sum != m.Sum {
		return nil, nil, fmt.Errorf("manifest %d: checksum mismatch (%#x != %#x)", n, sum, m.Sum)
	}
	return &m, words, nil
}

// replayTail applies every record at or after the manifest's cut.
func (st *RecoveredState) replayTail(dir string, m *Manifest) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var segIdxs []uint64
	for _, e := range entries {
		var n uint64
		if matchName(e.Name(), "seg-%08d.wal", &n) && n >= m.CutSeg {
			segIdxs = append(segIdxs, n)
		}
	}
	sort.Slice(segIdxs, func(i, j int) bool { return segIdxs[i] < segIdxs[j] })
	// Segment files are created lazily, by the first batch write that
	// reaches them, so the cut segment may legitimately not exist
	// (nothing after the cut was ever written) — but a gap in the middle
	// of the tail is corruption.
	for i, idx := range segIdxs {
		if want := segIdxs[0] + uint64(i); idx != want {
			return fmt.Errorf("wal: segment gap: have %d, want %d", idx, want)
		}
	}
	if len(segIdxs) > 0 && segIdxs[0] != m.CutSeg {
		return fmt.Errorf("wal: tail starts at segment %d, cut is in %d", segIdxs[0], m.CutSeg)
	}

	var rec Record
	for i, idx := range segIdxs {
		last := i == len(segIdxs)-1
		path := filepath.Join(dir, SegName(idx))
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if len(b) < segHdrLen || string(b[:8]) != segMagic {
			if last {
				// Torn header: the process crashed before the segment's
				// first batch completed. Nothing in it was acked.
				if err := os.Remove(path); err != nil {
					return err
				}
				st.Truncated = true
				break
			}
			return fmt.Errorf("wal: segment %d: bad header", idx)
		}
		if got := binary.LittleEndian.Uint64(b[8:]); got != idx {
			return fmt.Errorf("wal: segment file %d labeled %d", idx, got)
		}
		off := segHdrLen
		if idx == m.CutSeg {
			if m.CutOff > uint64(len(b)) {
				// The cut lies beyond what reached this file: every record
				// here predates the snapshot.
				off = len(b)
			} else if m.CutOff > segHdrLen {
				off = int(m.CutOff)
			}
		}
		for off < len(b) {
			n, err := DecodeRecord(b[off:], &rec)
			if err != nil {
				if last && errors.Is(err, ErrTorn) {
					if err := os.Truncate(path, int64(off)); err != nil {
						return err
					}
					st.Truncated = true
					break
				}
				return fmt.Errorf("wal: segment %d offset %d: %w", idx, off, err)
			}
			st.apply(&rec)
			off += n
		}
		st.NextSeg = idx + 1
	}
	return nil
}

// RemoveSegmentsBelow deletes every segment file with index < seg.
// Recovery leaves pre-cut segments from the previous incarnation on
// disk; the post-recovery checkpoint calls this to reclaim them, since
// the new log only tracks (and truncates) its own segments.
func RemoveSegmentsBelow(dir string, seg uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range entries {
		var n uint64
		if matchName(e.Name(), "seg-%08d.wal", &n) && n < seg {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func (st *RecoveredState) apply(rec *Record) {
	for i := range rec.Spans {
		s := &rec.Spans[i]
		for j, v := range s.Vals {
			a := s.Addr + uint64(j)
			if a < uint64(len(st.Words)) {
				st.Words[a] = v
			}
		}
	}
	if rec.Version > st.Clock {
		st.Clock = rec.Version
	}
	if rec.GlobalsNext > st.GlobalsNext {
		st.GlobalsNext = rec.GlobalsNext
	}
	if rec.HeapNext > st.HeapNext {
		st.HeapNext = rec.HeapNext
	}
	if rec.Seq+1 > st.NextSeq {
		st.NextSeq = rec.Seq + 1
	}
	st.Records++
}
