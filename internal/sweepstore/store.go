// Package sweepstore content-addresses sweep results on disk. Work
// units are keyed by the hash of their complete input description
// (experiments.ShardConfig — config plus ShardSeed), so identical
// sub-sweeps are served from cache instead of recomputed, whatever sweep
// they were first computed for. Whole sweeps are checkpointed under
// their spec hash (the spec at submit, the result at completion), and
// because every finished shard is persisted as it completes, a crashed
// or cancelled sweep resumes by rerunning the pipeline: cached shards
// are served from disk and only the missing ones are recomputed, folding
// to results bit-identical with an uninterrupted run.
//
// The store is log-structured. Layout under the store root:
//
//	VERSION                the config-hash version of the writer
//	LOCK                   flock'd by the one Store that has the root open
//	<seq>.seg              segment files, 16 hex digits of sequence number
//
// Every entry is a record appended with one write(2) to the newest
// segment: a shard's runs, a job's spec or result (pins), or an
// access-time touch. Each record carries its kind, its 32-byte key, an
// access time and a CRC-32C over all of it (record.go). Open scans the
// segments in sequence order into an in-memory index where the last
// record for a key wins. A record whose CRC fails is skipped, and its
// length locates the next one; bad framing, or a length past the end of
// the segment, ends that segment's scan, so a torn tail left by a
// killed writer is a miss, never a wrong hit. Reads pread the indexed
// record and check its CRC, kind and key again before decoding it, so a
// corrupted byte on disk also degrades to a miss. New writes always go
// to a fresh segment, never behind an old tail. GC compacts the log
// (gc.go), and Open imports a store written in the earlier
// one-JSON-file-per-entry layout once (legacy.go).
package sweepstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
)

// Version names the config-hash scheme. It is folded into every key and
// stamped on the store root, and the sweep service refuses specs from
// clients with a different version: any change to simulation semantics,
// RNG draw order, or the spec/shard encodings must bump it, so a stale
// cache can never be served as current results.
//
// v2: the sparse engine joined the engine vocabulary and Spec gained the
// adaptive-sampling fields (adapt_rel_width / adapt_min_samples /
// adapt_batch). The fields are omitempty, so a non-adaptive spec's JSON
// is byte-identical to v1 — the version bump is what guarantees pre-PR-7
// caches are never served as current results.
//
// v3: the frame engines moved to fused error-run programs with
// geometric gap sampling (a different RNG draw order than the per-site
// Bernoulli sweep v2 cached), and Spec/ShardConfig gained the wide-lane
// fields (lanes / seeds). Both field sets are omitempty, so a width-1
// spec's JSON is byte-identical to v2 — the version bump alone keeps
// v2-era frame results from being served as current ones.
//
// Spec and ShardConfig later gained the QEC code field (code: "steane",
// omitted for SC17) without a bump, because no cached result can be
// misread: SC17 encodings are byte-identical to before (SC17 is the
// field's canonical empty value), and Steane encodings are new, so no
// pre-existing key names a Steane computation. Servers and workers
// decode with DisallowUnknownFields, so an older binary refuses a spec
// that carries code instead of running it as SC17.
//
// The on-disk payload encoding (record.go) is not part of any key: the
// move from JSON files to binary records kept v3.
const Version = "pf-sweep-v3"

// keyOf content-addresses one value: SHA-256 over the version, a kind
// tag, and the canonical JSON encoding. Go's encoding/json is canonical
// for our structs: field order is declaration order and float64 values
// round-trip exactly.
func keyOf(kind string, v any) (string, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("sweepstore: encode %s key: %w", kind, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", Version, kind)
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// SpecKey returns the content address of a whole sweep (its job ID).
// The spec is normalized first, so equivalent specs hash identically.
func SpecKey(spec experiments.Spec) (string, error) {
	return keyOf("spec", spec.Normalized())
}

// ShardKey returns the content address of one shard's results.
func ShardKey(sc experiments.ShardConfig) (string, error) {
	return keyOf("shard", sc)
}

// Stats are the store's monotonic operation counters, plus the current
// shard footprint.
type Stats struct {
	// ShardHits / ShardMisses count GetShard outcomes (a corrupt or
	// mismatched record counts as a miss).
	ShardHits   int64
	ShardMisses int64
	// ShardWrites counts persisted shards.
	ShardWrites int64
	// ShardBytes is the byte footprint of every shard and touch record
	// in the segments, superseded ones included: what GC can reclaim.
	// Spec/result pins are not counted.
	ShardBytes int64
	// GCRuns / GCEvicted / GCReclaimedBytes count garbage-collection
	// passes, evicted shards, and bytes reclaimed (see Store.GC).
	GCRuns           int64
	GCEvicted        int64
	GCReclaimedBytes int64
}

// segmentBytes is the size at which appends move on to a fresh segment.
const segmentBytes = 16 << 20

// segment is one open segment file. Appends only ever go to the
// segment a segRun is currently filling.
type segment struct {
	seq  uint64
	f    *os.File
	size int64
}

// ikey names an indexed entry: shards, specs and results live in
// separate key spaces (a job's spec and result share its ID).
type ikey struct {
	kind kind
	key  digest
}

// loc is where an entry's newest record lives, and for a shard its
// access time (touch records fold into it).
type loc struct {
	seg   *segment
	off   int64
	n     int64
	atime int64
}

// Store is an on-disk content-addressed sweep cache. All methods are
// safe for concurrent use. One mutex guards the index and the segment
// list: a Put encodes outside it and holds it for its single write(2), a
// Get holds it for the index lookup and the pread and checks and decodes
// outside it, and GC holds it for a whole pass. The index assumes it is
// the only writer, which the flock on LOCK enforces across processes.
type Store struct {
	root string
	lock *os.File

	hits, misses, writes atomic.Int64
	// maxBytes > 0 arms automatic GC after writes and access-time
	// touches on hits (see gc.go).
	maxBytes                       atomic.Int64
	gcRuns, gcEvicted, gcReclaimed atomic.Int64

	mu      sync.Mutex
	index   map[ikey]loc
	log     segRun // every open segment; appends go to log.cur
	nextSeq uint64
	size    int64 // shard and touch bytes in the segments (Stats.ShardBytes)
	scan    scanReport
	closed  bool
}

var errClosed = errors.New("sweepstore: store is closed")

// Open opens (creating if needed) a store rooted at dir and takes its
// lock: only one Store, in one process, may have a directory open, and
// a second Open fails until the first is closed. A root written by a
// different config-hash version is rejected rather than silently mixed
// with the current one. A store in the earlier one-file-per-entry layout
// is imported into a segment, and the files it recognizes removed,
// before Open returns; a directory without a VERSION stamp never held a
// store and is not searched for them.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("sweepstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweepstore: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweepstore: %w", err)
	}
	if err := lockFile(lock); err != nil {
		if errors.Is(err, errLocked) {
			err = fmt.Errorf("sweepstore: store %s is in use by another process (only one process may open a store directory): %w", dir, err)
		} else {
			err = fmt.Errorf("sweepstore: lock %s: %w", dir, err)
		}
		return nil, errors.Join(err, lock.Close())
	}
	s := &Store{root: dir, lock: lock, index: make(map[ikey]loc), nextSeq: 1}
	if err := s.open(); err != nil {
		return nil, errors.Join(err, s.Close())
	}
	return s, nil
}

// open checks the version stamp, imports a legacy tree and scans the
// segments into the index.
func (s *Store) open() error {
	vpath := filepath.Join(s.root, "VERSION")
	prev, err := os.ReadFile(vpath)
	hadVersion := err == nil
	if hadVersion {
		if got := strings.TrimSpace(string(prev)); got != Version {
			return fmt.Errorf("sweepstore: store %s was written with config-hash version %q, this binary uses %q (use a fresh store directory)", s.root, got, Version)
		}
	} else if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(vpath, []byte(Version+"\n"), 0o644); err != nil {
			return fmt.Errorf("sweepstore: %w", err)
		}
	} else {
		return fmt.Errorf("sweepstore: %w", err)
	}
	seqs, err := s.segmentSeqs()
	if err != nil {
		return err
	}
	if len(seqs) > 0 {
		s.nextSeq = seqs[len(seqs)-1] + 1
	}
	// Every store of the earlier layout carries VERSION, so a directory
	// without one is never searched for legacy files.
	imported := false
	if hadVersion {
		if imported, err = s.importLegacy(); err != nil {
			return err
		}
	}
	if imported {
		if seqs, err = s.segmentSeqs(); err != nil {
			return err
		}
	}
	for _, seq := range seqs {
		if err := s.scanSegment(seq); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the store's files and its directory lock. Every
// later call on the Store misses or fails; closing twice is harmless.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	for _, seg := range s.log.segs {
		errs = append(errs, seg.f.Close())
	}
	s.log = segRun{}
	s.index = nil
	// Closing the lock's descriptor releases the flock.
	errs = append(errs, s.lock.Close())
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("sweepstore: close %s: %w", s.root, err)
	}
	return nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	size := s.size
	s.mu.Unlock()
	return Stats{
		ShardHits:        s.hits.Load(),
		ShardMisses:      s.misses.Load(),
		ShardWrites:      s.writes.Load(),
		ShardBytes:       size,
		GCRuns:           s.gcRuns.Load(),
		GCEvicted:        s.gcEvicted.Load(),
		GCReclaimedBytes: s.gcReclaimed.Load(),
	}
}

// now is the store's clock: access times order LRU eviction and never
// flow into keys or results.
func now() int64 {
	//qa:allow determinism LRU access-time bookkeeping, never flows into results
	return time.Now().UnixNano()
}

// GetShard returns the cached runs under key, verifying the record's
// checksum and key and the payload against the expected seed and shot
// count. Any mismatch, damage, or absence is a miss — the pipeline then
// recomputes the shard, so a damaged cache degrades to extra work,
// never to wrong results.
func (s *Store) GetShard(key string, wantShots int, wantSeed int64) ([]experiments.LERResult, bool) {
	d, ok := parseDigest(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	runs, ok := s.shard(d, wantShots, wantSeed)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	if s.maxBytes.Load() > 0 {
		s.touch(d)
	}
	return runs, true
}

// shard reads and checks the shard record under d.
func (s *Store) shard(d digest, wantShots int, wantSeed int64) ([]experiments.LERResult, bool) {
	rec, found, err := s.read(kindShard, d)
	if !found || err != nil {
		return nil, false
	}
	seed, runs, err := decodeShardBody(rec.body)
	if err != nil || seed != wantSeed || len(runs) != wantShots {
		return nil, false
	}
	// The counts are the ground truth and the division is exact to
	// replay, so the round trip is bit-identical by construction.
	experiments.NormalizeLERRuns(runs)
	return runs, true
}

// PutShard persists one computed shard under key. When a size bound is
// armed (SetMaxBytes) and the write pushes the shard footprint over it,
// a GC pass runs before returning.
func (s *Store) PutShard(key string, seed int64, runs []experiments.LERResult) error {
	d, ok := parseDigest(key)
	if !ok {
		return badKey("shard key", key)
	}
	at := now()
	rec := appendRecord(nil, kindShard, d, at, appendShardBody(nil, seed, runs))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(record{kind: kindShard, key: d, atime: at}, rec); err != nil {
		return err
	}
	s.writes.Add(1)
	return s.autoGCLocked()
}

// PutSpec checkpoints a submitted spec under its hash, making the job
// resumable by ID after a crash or restart.
func (s *Store) PutSpec(hash string, spec experiments.Spec) error {
	blob, err := json.Marshal(spec.Normalized())
	if err != nil {
		return fmt.Errorf("sweepstore: encode spec: %w", err)
	}
	return s.putPin(kindSpec, hash, blob)
}

// GetSpec loads the spec checkpointed under hash.
func (s *Store) GetSpec(hash string) (experiments.Spec, bool, error) {
	var spec experiments.Spec
	blob, ok, err := s.getPin(kindSpec, hash)
	if err != nil || !ok {
		return spec, false, err
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		return experiments.Spec{}, false, fmt.Errorf("sweepstore: decode spec %s: %w", hash, err)
	}
	return spec, true, nil
}

// PutResult stores the folded results of a completed sweep.
func (s *Store) PutResult(hash string, pts []experiments.PointResult) error {
	blob, err := json.Marshal(pts)
	if err != nil {
		return fmt.Errorf("sweepstore: encode result: %w", err)
	}
	return s.putPin(kindResult, hash, blob)
}

// GetResult loads the stored results of sweep hash, if complete.
func (s *Store) GetResult(hash string) ([]experiments.PointResult, bool, error) {
	blob, ok, err := s.getPin(kindResult, hash)
	if err != nil || !ok {
		return nil, false, err
	}
	var pts []experiments.PointResult
	if err := json.Unmarshal(blob, &pts); err != nil {
		return nil, false, fmt.Errorf("sweepstore: decode result %s: %w", hash, err)
	}
	return pts, true, nil
}

// putPin appends a spec or result record, unless the job already holds
// these exact bytes: resubmits are deterministic, so skipping them keeps
// dead copies from piling up.
func (s *Store) putPin(k kind, hash string, blob []byte) error {
	d, ok := parseDigest(hash)
	if !ok {
		return badKey("job ID", hash)
	}
	at := now()
	rec := appendRecord(nil, k, d, at, blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.index[ikey{k, d}]; ok {
		if old, err := readRecord(l, k, d); err == nil && bytes.Equal(old.body, blob) {
			return nil
		}
	}
	return s.appendLocked(record{kind: k, key: d, atime: at}, rec)
}

// getPin returns the body of a job's spec or result record. Unlike a
// shard, a pin cannot be recomputed, so a damaged one is an error.
func (s *Store) getPin(k kind, hash string) ([]byte, bool, error) {
	d, ok := parseDigest(hash)
	if !ok {
		return nil, false, badKey("job ID", hash)
	}
	rec, found, err := s.read(k, d)
	if err != nil {
		return nil, false, fmt.Errorf("sweepstore: job %s: %w (run sweepd fsck)", hash, err)
	}
	return rec.body, found, nil
}

// read returns the verified record indexed under (k, d), holding the
// mutex only for the lookup and the pread.
func (s *Store) read(k kind, d digest) (rec record, found bool, err error) {
	var buf []byte
	s.mu.Lock()
	l, found := s.index[ikey{k, d}]
	if found {
		buf, err = pread(l)
	}
	s.mu.Unlock()
	if !found || err != nil {
		return record{}, found, err
	}
	rec, err = checked(buf, k, d)
	return rec, true, err
}

// readRecord reads and checks the record at l. The caller holds s.mu.
func readRecord(l loc, k kind, d digest) (record, error) {
	buf, err := pread(l)
	if err != nil {
		return record{}, err
	}
	return checked(buf, k, d)
}

// pread reads the bytes of the record at l. The caller holds s.mu,
// which keeps l's segment open.
func pread(l loc) ([]byte, error) {
	buf := make([]byte, l.n)
	if _, err := l.seg.f.ReadAt(buf, l.off); err != nil {
		return nil, fmt.Errorf("sweepstore: read segment %d: %w", l.seg.seq, err)
	}
	return buf, nil
}

// checked parses buf as a record of kind k under key d.
func checked(buf []byte, k kind, d digest) (record, error) {
	rec, err := parseRecord(buf)
	if err == nil && (rec.kind != k || rec.key != d) {
		err = errBadRecord
	}
	return rec, err
}

// appendLocked writes rec, the framing of r, to the log and indexes it.
func (s *Store) appendLocked(r record, rec []byte) error {
	if s.closed {
		return errClosed
	}
	l, err := s.log.append(s, rec)
	if err != nil {
		return err
	}
	s.apply(r, l)
	return nil
}

// apply indexes one record found at l, by a scan or an append.
func (s *Store) apply(r record, l loc) {
	switch r.kind {
	case kindTouch:
		s.size += l.n
		k := ikey{kindShard, r.key}
		if e, ok := s.index[k]; ok {
			e.atime = r.atime
			s.index[k] = e
		}
	case kindShard:
		s.size += l.n
		l.atime = r.atime
		s.index[ikey{r.kind, r.key}] = l
	case kindSpec, kindResult:
		s.index[ikey{r.kind, r.key}] = l
	}
}
