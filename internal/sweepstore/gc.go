// Store garbage collection: a fleet-shared shard cache must not grow
// without limit, so the store tracks the byte footprint of its shard
// records and can evict least-recently-accessed shards down to a bound.
//
// Only shards are evictable. The spec and result checkpoints are pins:
// they are what makes a job resumable by ID, they are tiny next to the
// shard payloads, and a GC that dropped them would turn a bounded cache
// into a lossy job table. Evicting a shard is always safe — the
// pipeline treats a missing shard as a cache miss and recomputes it
// bit-identically, so GC trades wall-clock for disk, never correctness.
//
// Eviction order is deterministic: ascending (access time, key). Every
// shard record carries its access time, and GetShard appends a touch
// record on every hit while a size bound is armed, so access-time order
// is LRU order across restarts; the content-address key breaks ties, so
// a fixed access sequence always evicts the same shards.
//
// A pass that evicts, or finds superseded records, compacts the log:
// every surviving record, pins included, is rewritten with its access
// time into fresh segments, which are synced before the old segments
// are removed. A crash or a power loss in between leaves duplicates,
// which the next Open resolves by sequence order, never a loss. The
// pass holds the store mutex throughout, so reads and writes wait for
// it; auto-GC's headroom keeps passes rare.
package sweepstore

import (
	"errors"
	"fmt"
	"sort"
)

// autoGCHeadroom sets where automatic GC stops: it evicts down to the
// bound less 1/autoGCHeadroom of it, so one compaction covers many
// writes instead of one pass per write at the bound.
const autoGCHeadroom = 4

// GCResult reports one garbage-collection pass.
type GCResult struct {
	// Evicted is the number of shards removed.
	Evicted int
	// ReclaimedBytes is the shard footprint the pass removed: evicted
	// shards plus superseded shard and touch records.
	ReclaimedBytes int64
	// RemainingBytes is the shard footprint after the pass.
	RemainingBytes int64
}

// SetMaxBytes arms automatic garbage collection: after any PutShard
// that pushes the shard footprint over limit, the store evicts
// least-recently-accessed shards until it is back under three quarters
// of limit, and GetShard hits bump their shard's access time so hot
// shards survive. limit <= 0 disarms the bound (the default).
func (s *Store) SetMaxBytes(limit int64) {
	s.maxBytes.Store(limit)
}

// MaxBytes returns the armed size bound (0 when unlimited).
func (s *Store) MaxBytes() int64 { return s.maxBytes.Load() }

// touch records a hit on shard d, best-effort: a failed append only
// ages the shard's LRU position, it cannot corrupt results.
func (s *Store) touch(d digest) {
	at := now()
	rec := appendRecord(nil, kindTouch, d, at, nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[ikey{kindShard, d}]; !ok {
		return // evicted since the read
	}
	// Neither failure changes the hit: a lost touch ages the shard's LRU
	// slot, a failed pass leaves the footprint over the bound until the
	// next write's pass.
	if err := s.appendLocked(record{kind: kindTouch, key: d, atime: at}, rec); err != nil {
		return
	}
	if err := s.autoGCLocked(); err != nil {
		return
	}
}

// autoGCLocked runs a pass when an armed bound is exceeded.
func (s *Store) autoGCLocked() error {
	limit := s.maxBytes.Load()
	if limit <= 0 || s.size <= limit {
		return nil
	}
	_, err := s.gcLocked(limit - limit/autoGCHeadroom)
	return err
}

// GC evicts least-recently-accessed shards until the live shard bytes
// are at or below maxBytes (spec/result pins are never evicted), then
// compacts the log. The eviction order is ascending (access time, key),
// so a fixed access history always evicts the same shards; a subsequent
// sweep over the store recomputes exactly the evicted shards and folds
// to bit-identical results. Safe to call concurrently with reads and
// writes: an evicted shard being read degrades to a cache miss.
func (s *Store) GC(maxBytes int64) (GCResult, error) {
	if maxBytes < 0 {
		return GCResult{}, fmt.Errorf("sweepstore: negative GC bound %d", maxBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return GCResult{}, errClosed
	}
	return s.gcLocked(maxBytes)
}

func (s *Store) gcLocked(maxBytes int64) (GCResult, error) {
	type shard struct {
		key digest
		loc
	}
	var shards []shard
	var live int64
	for k, l := range s.index {
		if k.kind == kindShard {
			shards = append(shards, shard{k.key, l})
			live += l.n
		}
	}
	sort.Slice(shards, func(i, j int) bool {
		a, b := shards[i], shards[j]
		if a.atime != b.atime {
			return a.atime < b.atime
		}
		return string(a.key[:]) < string(b.key[:])
	})
	evict := make(map[ikey]bool)
	for _, sh := range shards {
		if live <= maxBytes {
			break
		}
		evict[ikey{kindShard, sh.key}] = true
		live -= sh.n
	}
	before := s.size
	res := GCResult{RemainingBytes: before}
	s.gcRuns.Add(1)
	if len(evict) == 0 && before <= live {
		return res, nil
	}
	if err := s.compactLocked(evict); err != nil {
		return res, err
	}
	res.Evicted = len(evict)
	res.ReclaimedBytes = before - s.size
	res.RemainingBytes = s.size
	s.gcEvicted.Add(int64(res.Evicted))
	s.gcReclaimed.Add(res.ReclaimedBytes)
	return res, nil
}

// compactLocked rewrites every indexed record not in drop into fresh
// segments, in log order, folding touches into their shard's access
// time. The new segments and the directory are synced before the old
// segments are removed, so neither a crash nor a power loss in between
// can lose a record. A shard that fails its checks is dropped, as it
// was already a miss. Any other failure, a pin that fails its checks
// included, removes the new segments and leaves the index and the old
// log as they were: only fsck -repair drops a damaged pin.
func (s *Store) compactLocked(drop map[ikey]bool) error {
	type entry struct {
		ikey
		loc
	}
	entries := make([]entry, 0, len(s.index))
	for k, l := range s.index {
		if !drop[k] {
			entries = append(entries, entry{k, l})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].loc, entries[j].loc
		if a.seg.seq != b.seg.seq {
			return a.seg.seq < b.seg.seq
		}
		return a.off < b.off
	})
	var out segRun
	index := make(map[ikey]loc, len(entries))
	var size int64
	for _, e := range entries {
		r, err := readRecord(e.loc, e.kind, e.key)
		if errors.Is(err, errBadRecord) && e.kind == kindShard {
			continue
		}
		if err != nil {
			return errors.Join(fmt.Errorf("sweepstore: compact: %s %x: %w (the log is unchanged; run sweepd fsck)", e.kind, e.key, err), out.remove(s))
		}
		rec := r.raw
		if e.kind == kindShard {
			rec = withAccessTime(rec, e.atime)
		}
		l, err := out.append(s, rec)
		if err != nil {
			return errors.Join(fmt.Errorf("sweepstore: compact: %w", err), out.remove(s))
		}
		if e.kind == kindShard {
			l.atime = e.atime
			size += l.n
		}
		index[e.ikey] = l
	}
	if err := out.sync(s); err != nil {
		return errors.Join(fmt.Errorf("sweepstore: compact: %w", err), out.remove(s))
	}
	old := s.log
	s.log, s.index, s.size = segRun{segs: out.segs}, index, size
	if err := old.remove(s); err != nil {
		return fmt.Errorf("sweepstore: remove compacted segments: %w", err)
	}
	return nil
}
