// Package sweepstore content-addresses sweep results on disk. Work
// units are keyed by the hash of their complete input description
// (experiments.ShardConfig — config plus ShardSeed), so identical
// sub-sweeps are served from cache instead of recomputed, whatever sweep
// they were first computed for. Whole sweeps are checkpointed under
// their spec hash (spec.json at submit, result.json at completion), and
// because every finished shard is persisted as it completes, a crashed
// or cancelled sweep resumes by rerunning the pipeline: cached shards
// are served from disk and only the missing ones are recomputed, folding
// to results bit-identical with an uninterrupted run.
//
// Layout under the store root:
//
//	VERSION                     the config-hash version of the writer
//	shards/<k[:2]>/<k>.json     one file per shard key k (content address)
//	jobs/<h>/spec.json          the submitted spec of sweep hash h
//	jobs/<h>/result.json        the folded PointResults of sweep hash h
//
// All writes are atomic (temp file + rename in the same directory), so a
// crash mid-write never leaves a truncated file behind a valid key.
package sweepstore

import (
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
// shard-payload footprint.
type Stats struct {
	// ShardHits / ShardMisses count GetShard outcomes (a corrupt or
	// mismatched file counts as a miss).
	ShardHits   int64
	ShardMisses int64
	// ShardWrites counts persisted shards.
	ShardWrites int64
	// ShardBytes is the current byte footprint of the shards/ tree
	// (spec/result checkpoints under jobs/ are pins, not counted).
	ShardBytes int64
	// GCRuns / GCEvicted / GCReclaimedBytes count garbage-collection
	// passes, evicted shard files, and bytes reclaimed (see Store.GC).
	GCRuns           int64
	GCEvicted        int64
	GCReclaimedBytes int64
}

// Store is an on-disk content-addressed sweep cache. All methods are
// safe for concurrent use: distinct keys touch distinct files and writes
// are atomic renames.
type Store struct {
	root string

	hits, misses, writes atomic.Int64

	// size tracks the shards/ byte footprint (scanned at Open, updated
	// by PutShard and GC). maxBytes > 0 arms automatic GC after writes
	// and access-time bumps on hits (see gc.go).
	size     atomic.Int64
	maxBytes atomic.Int64
	gcMu     sync.Mutex

	gcRuns, gcEvicted, gcReclaimed atomic.Int64
}

// Open opens (creating if needed) a store rooted at dir. A root written
// by a different config-hash version is rejected rather than silently
// mixed with the current one.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("sweepstore: empty store directory")
	}
	for _, sub := range []string{"", "shards", "jobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("sweepstore: %w", err)
		}
	}
	vpath := filepath.Join(dir, "VERSION")
	if prev, err := os.ReadFile(vpath); err == nil {
		if got := strings.TrimSpace(string(prev)); got != Version {
			return nil, fmt.Errorf("sweepstore: store %s was written with config-hash version %q, this binary uses %q (use a fresh store directory)", dir, got, Version)
		}
	} else if errors.Is(err, fs.ErrNotExist) {
		if err := writeAtomic(vpath, []byte(Version+"\n")); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("sweepstore: %w", err)
	}
	s := &Store{root: dir}
	size, err := s.scanShardBytes()
	if err != nil {
		return nil, err
	}
	s.size.Store(size)
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats {
	return Stats{
		ShardHits:        s.hits.Load(),
		ShardMisses:      s.misses.Load(),
		ShardWrites:      s.writes.Load(),
		ShardBytes:       s.size.Load(),
		GCRuns:           s.gcRuns.Load(),
		GCEvicted:        s.gcEvicted.Load(),
		GCReclaimedBytes: s.gcReclaimed.Load(),
	}
}

// shardFile is the on-disk shard payload. Seed and Shots replicate the
// keyed ShardConfig fields so a hit can be cross-checked against what
// the caller expects — a defense-in-depth guard against a corrupted or
// hand-edited store.
type shardFile struct {
	Seed  int64                   `json:"seed"`
	Shots int                     `json:"shots"`
	Runs  []experiments.LERResult `json:"runs"`
}

func (s *Store) shardPath(key string) string {
	return filepath.Join(s.root, "shards", key[:2], key+".json")
}

// GetShard returns the cached runs under key, verifying the payload
// against the expected seed and shot count. Any mismatch, decode error,
// or absence is a miss — the pipeline then recomputes the shard, so a
// damaged cache degrades to extra work, never to wrong results.
func (s *Store) GetShard(key string, wantShots int, wantSeed int64) ([]experiments.LERResult, bool) {
	blob, err := os.ReadFile(s.shardPath(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	var sf shardFile
	if err := json.Unmarshal(blob, &sf); err != nil ||
		sf.Seed != wantSeed || sf.Shots != wantShots || len(sf.Runs) != wantShots {
		s.misses.Add(1)
		return nil, false
	}
	// Recompute the derived ratio from the stored integers: the counts
	// are the ground truth and the division is exact to replay, so the
	// round trip is bit-identical by construction.
	experiments.NormalizeLERRuns(sf.Runs)
	s.hits.Add(1)
	if s.maxBytes.Load() > 0 {
		s.touch(s.shardPath(key))
	}
	return sf.Runs, true
}

// PutShard persists one computed shard under key. When a size bound is
// armed (SetMaxBytes) and the write pushes the shard footprint over it,
// a GC pass runs before returning.
func (s *Store) PutShard(key string, seed int64, runs []experiments.LERResult) error {
	blob, err := json.Marshal(shardFile{Seed: seed, Shots: len(runs), Runs: runs})
	if err != nil {
		return fmt.Errorf("sweepstore: encode shard: %w", err)
	}
	path := s.shardPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("sweepstore: %w", err)
	}
	// An overwrite replaces the old payload, so only the delta counts.
	var prev int64
	if fi, err := os.Stat(path); err == nil {
		prev = fi.Size()
	}
	if err := writeAtomic(path, blob); err != nil {
		return err
	}
	s.writes.Add(1)
	s.size.Add(int64(len(blob)) - prev)
	if limit := s.maxBytes.Load(); limit > 0 && s.size.Load() > limit {
		if _, err := s.GC(limit); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) jobPath(hash, name string) string {
	return filepath.Join(s.root, "jobs", hash, name)
}

// PutSpec checkpoints a submitted spec under its hash, making the job
// resumable by ID after a crash or restart.
func (s *Store) PutSpec(hash string, spec experiments.Spec) error {
	blob, err := json.Marshal(spec.Normalized())
	if err != nil {
		return fmt.Errorf("sweepstore: encode spec: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(s.jobPath(hash, "spec.json")), 0o755); err != nil {
		return fmt.Errorf("sweepstore: %w", err)
	}
	return writeAtomic(s.jobPath(hash, "spec.json"), blob)
}

// GetSpec loads the spec checkpointed under hash.
func (s *Store) GetSpec(hash string) (experiments.Spec, bool, error) {
	blob, err := os.ReadFile(s.jobPath(hash, "spec.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return experiments.Spec{}, false, nil
	}
	if err != nil {
		return experiments.Spec{}, false, fmt.Errorf("sweepstore: %w", err)
	}
	var spec experiments.Spec
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
	if err := os.MkdirAll(filepath.Dir(s.jobPath(hash, "result.json")), 0o755); err != nil {
		return fmt.Errorf("sweepstore: %w", err)
	}
	return writeAtomic(s.jobPath(hash, "result.json"), blob)
}

// GetResult loads the stored results of sweep hash, if complete.
func (s *Store) GetResult(hash string) ([]experiments.PointResult, bool, error) {
	blob, err := os.ReadFile(s.jobPath(hash, "result.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("sweepstore: %w", err)
	}
	var pts []experiments.PointResult
	if err := json.Unmarshal(blob, &pts); err != nil {
		return nil, false, fmt.Errorf("sweepstore: decode result %s: %w", hash, err)
	}
	return pts, true, nil
}

// writeAtomic writes data to path via a temp file and rename, so readers
// never observe a partial file.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("sweepstore: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		//qa:allow errcheck best-effort temp cleanup, the write error is returned
		tmp.Close()
		//qa:allow errcheck best-effort temp cleanup, the write error is returned
		os.Remove(name)
		return fmt.Errorf("sweepstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		//qa:allow errcheck best-effort temp cleanup, the close error is returned
		os.Remove(name)
		return fmt.Errorf("sweepstore: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		//qa:allow errcheck best-effort temp cleanup, the rename error is returned
		os.Remove(name)
		return fmt.Errorf("sweepstore: %w", err)
	}
	return nil
}
