package sweepstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustClose(t *testing.T, st *Store) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// fake is synthetic shard i: its key, seed and runs.
type fake struct {
	key  string
	seed int64
	runs []experiments.LERResult
}

func fakeOf(t *testing.T, i int) fake {
	t.Helper()
	seed := int64(5000 + i)
	key, err := ShardKey(experiments.ShardConfig{Engine: "stack", PER: 2e-3, ErrorType: "z",
		MaxLogicalErrors: 3, MaxWindows: 40, Seed: seed, Shots: 2})
	if err != nil {
		t.Fatal(err)
	}
	runs := []experiments.LERResult{
		{Windows: 40 + i, LogicalErrors: i % 3, CorrectionGates: 3 * i, OpsIssued: 100 * i, InjectedErrors: i},
		{Windows: 7, LogicalErrors: 1, SlotsIssued: i, OpsExecuted: -1, SlotsExecuted: 1 << 40},
	}
	experiments.NormalizeLERRuns(runs)
	return fake{key, seed, runs}
}

func (f fake) put(t *testing.T, st *Store) {
	t.Helper()
	if err := st.PutShard(f.key, f.seed, f.runs); err != nil {
		t.Fatal(err)
	}
}

// hit reports whether st serves f, failing the test on a wrong value.
func (f fake) hit(t *testing.T, st *Store) bool {
	t.Helper()
	runs, ok := st.GetShard(f.key, len(f.runs), f.seed)
	if ok && !reflect.DeepEqual(runs, f.runs) {
		t.Errorf("shard %s: served %+v, put %+v", f.key[:8], runs, f.runs)
	}
	return ok
}

// TestShardCodecCoversLERResult: the shard body stores LERResult's
// integer fields by name, so a new field must reach the codec before it
// can be cached, or it would silently come back as zero.
func TestShardCodecCoversLERResult(t *testing.T) {
	if n := reflect.TypeOf(experiments.LERResult{}).NumField(); n != shardFields+1 {
		t.Fatalf("LERResult has %d fields, the shard codec stores %d integers plus the derived LER", n, shardFields)
	}
	runs := fakeOf(t, 3).runs
	seed, got, err := decodeShardBody(appendShardBody(nil, -99, runs))
	experiments.NormalizeLERRuns(got)
	if err != nil || seed != -99 || !reflect.DeepEqual(got, runs) {
		t.Fatalf("codec round trip: seed %d err %v\nput %+v\ngot %+v", seed, err, runs, got)
	}
}

// TestOpenLocksDirectory: one Store per directory. A second Open fails
// with a clear error until the first Store is closed.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	if second, err := Open(dir); err == nil {
		mustClose(t, second)
		t.Fatal("a second Open of a held directory succeeded")
	} else if !strings.Contains(err.Error(), "in use by another process") {
		t.Errorf("second Open: %v, want an in-use error", err)
	}
	if _, err := Fsck(dir, false); err == nil {
		t.Error("fsck ran on a store that is open")
	}
	mustClose(t, st)
	mustClose(t, st) // closing twice is harmless
	if err := st.PutShard(fakeOf(t, 0).key, 1, nil); err == nil {
		t.Error("PutShard on a closed store succeeded")
	}
	mustClose(t, mustOpen(t, dir))
}

// TestJobMethodsRejectMalformedIDs: the store refuses job IDs that are
// not content addresses, whatever the caller.
func TestJobMethodsRejectMalformedIDs(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	defer mustClose(t, st)
	id, err := SpecKey(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"../../outside", strings.ToUpper(id), id[:63], id + "0", ""} {
		if err := st.PutSpec(bad, testSpec()); err == nil {
			t.Errorf("PutSpec(%q) accepted", bad)
		}
		if err := st.PutResult(bad, nil); err == nil {
			t.Errorf("PutResult(%q) accepted", bad)
		}
		if _, _, err := st.GetSpec(bad); err == nil {
			t.Errorf("GetSpec(%q) accepted", bad)
		}
		if _, _, err := st.GetResult(bad); err == nil {
			t.Errorf("GetResult(%q) accepted", bad)
		}
		if err := st.PutShard(bad, 1, nil); err == nil {
			t.Errorf("PutShard(%q) accepted", bad)
		}
	}
}

// TestIdenticalPinsAppendOnce: resubmits rewrite the same spec and
// result bytes, which must not grow the log.
func TestIdenticalPinsAppendOnce(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	defer mustClose(t, st)
	id, err := SpecKey(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	pts := []experiments.PointResult{{PER: 1e-3, LERs: []float64{0.5}}}
	logBytes := func() int64 {
		var n int64
		for _, p := range dataFiles(t, dir) {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}
	var sizes []int64
	for i := 0; i < 3; i++ {
		if err := st.PutSpec(id, testSpec()); err != nil {
			t.Fatal(err)
		}
		if err := st.PutResult(id, pts); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, logBytes())
	}
	if sizes[1] != sizes[0] || sizes[2] != sizes[0] {
		t.Errorf("log grew on identical pins: %v", sizes)
	}
	pts[0].LERs[0] = 0.25
	if err := st.PutResult(id, pts); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := st.GetResult(id); err != nil || !ok || !reflect.DeepEqual(got, pts) {
		t.Errorf("changed result: got %+v ok=%v err=%v", got, ok, err)
	}
}

// TestTornTailIsAMiss cuts the active segment at every byte inside its
// last record, as a writer killed mid-append would. Every earlier record
// must still hit, the torn one must miss, and writes after the reopen
// must survive a further reopen.
func TestTornTailIsAMiss(t *testing.T) {
	pristine := t.TempDir()
	st := mustOpen(t, pristine)
	fakes := []fake{fakeOf(t, 0), fakeOf(t, 1), fakeOf(t, 2)}
	for _, f := range fakes {
		f.put(t, st)
	}
	last, _ := indexed(st, fakes[2].key)
	seg := filepath.Base(st.segmentPath(last.seg.seq))
	mustClose(t, st)
	after := fakeOf(t, 3)
	for cut := last.off; cut < last.off+last.n; cut++ {
		dir := t.TempDir()
		copyTree(t, pristine, dir)
		if err := os.Truncate(filepath.Join(dir, seg), cut); err != nil {
			t.Fatal(err)
		}
		st := mustOpen(t, dir)
		for _, f := range fakes[:2] {
			if !f.hit(t, st) {
				t.Errorf("cut at %d: an earlier record missed", cut)
			}
		}
		if fakes[2].hit(t, st) {
			t.Errorf("cut at %d: the torn record hit", cut)
		}
		after.put(t, st)
		mustClose(t, st)
		st = mustOpen(t, dir)
		if !after.hit(t, st) || !fakes[0].hit(t, st) {
			t.Errorf("cut at %d: a write made after the reopen was lost", cut)
		}
		mustClose(t, st)
	}
}

// TestInterruptedCompaction leaves the old segments next to the new
// ones, as a GC killed between writing its compacted segment and
// removing the old ones would, with the compacted segment cut at every
// byte. No shard GC kept may be lost, pins must survive, and nothing
// may be served with a wrong value.
func TestInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	var fakes []fake
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		f := fakeOf(t, i)
		f.put(t, st)
		setAccessTime(t, st, f.key, base.Add(time.Duration(i)*time.Minute))
		fakes = append(fakes, f)
	}
	id, err := SpecKey(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	pts := []experiments.PointResult{{PER: 3e-3, LERs: []float64{0.125}}}
	if err := st.PutSpec(id, testSpec()); err != nil {
		t.Fatal(err)
	}
	if err := st.PutResult(id, pts); err != nil {
		t.Fatal(err)
	}
	old := map[string][]byte{}
	for _, p := range dataFiles(t, dir) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		old[filepath.Base(p)] = b
	}
	var keep int64
	for _, f := range fakes[3:] {
		keep += shardSize(t, st, f.key)
	}
	if res, err := st.GC(keep); err != nil || res.Evicted != 3 {
		t.Fatalf("GC = %+v, %v; want the 3 oldest evicted", res, err)
	}
	mustClose(t, st)
	compacted := dataFiles(t, dir)
	if len(compacted) != 1 {
		t.Fatalf("GC left %d segments, want 1", len(compacted))
	}
	if _, dup := old[filepath.Base(compacted[0])]; dup {
		t.Fatal("the compacted segment reused an old segment's name")
	}
	full, err := os.ReadFile(compacted[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		crash := t.TempDir()
		copyTree(t, dir, crash)
		for name, b := range old {
			if err := os.WriteFile(filepath.Join(crash, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(crash, filepath.Base(compacted[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st := mustOpen(t, crash)
		for i, f := range fakes {
			if !f.hit(t, st) && i >= 3 {
				t.Errorf("cut %d: shard %d, kept by GC, was lost", cut, i)
			}
		}
		if got, ok, err := st.GetResult(id); err != nil || !ok || !reflect.DeepEqual(got, pts) {
			t.Errorf("cut %d: result pin: %+v ok=%v err=%v", cut, got, ok, err)
		}
		if _, ok, err := st.GetSpec(id); err != nil || !ok {
			t.Errorf("cut %d: spec pin: ok=%v err=%v", cut, ok, err)
		}
		mustClose(t, st)
	}
}

// TestAutoGCAmortized: with the bound reached, further writes must not
// run a GC pass each. Auto-GC evicts below the bound, so one compaction
// covers many puts, and the footprint never ends a put above the bound.
func TestAutoGCAmortized(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	defer mustClose(t, st)
	const n, more = 800, 200
	base := time.Now().Add(-time.Hour)
	for i := 0; i < n; i++ {
		fakeShard(t, st, i, base.Add(time.Duration(i)*time.Millisecond))
	}
	limit := st.Stats().ShardBytes
	st.SetMaxBytes(limit)
	for i := n; i < n+more; i++ {
		fakeShard(t, st, i, base.Add(time.Duration(i)*time.Millisecond))
		if got := st.Stats().ShardBytes; got > limit {
			t.Fatalf("put %d: footprint %d over the bound %d", i-n, got, limit)
		}
	}
	if runs := st.Stats().GCRuns; runs < 1 || runs > 2 {
		t.Errorf("%d puts at the bound ran %d GC passes, want 1 or 2", more, runs)
	}
}

// TestLegacyImport opens a store written by the one-JSON-file-per-entry
// layout (testdata/legacy, produced by that code: the CI e2e job's
// spec, its four shards, its spec and result checkpoints, and a stray
// temp file). Every shard must hit with its runs, the job must resume
// fully cached to byte-identical result bytes, and the legacy files
// must be gone.
func TestLegacyImport(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy"), dir)
	spec := testSpec()
	id, err := SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantResult, err := os.ReadFile(filepath.Join(dir, "jobs", id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		key string
		sh  experiments.Shard
		ls  legacyShard
	}
	var shards []want
	for i := 0; i < spec.NumShards(); i++ {
		sh := spec.Shard(i)
		key, err := ShardKey(spec.ShardConfig(sh))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, "shards", key[:2], key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		w := want{key: key, sh: sh}
		if err := json.Unmarshal(blob, &w.ls); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, w)
	}

	for pass := 0; pass < 2; pass++ { // the import, then a plain reopen
		st := mustOpen(t, dir)
		for _, w := range shards {
			runs, ok := st.GetShard(w.key, w.sh.Count, w.sh.Seed)
			if !ok || !reflect.DeepEqual(runs, w.ls.Runs) {
				t.Errorf("pass %d: shard %s: ok=%v runs %+v, want %+v", pass, w.key[:8], ok, runs, w.ls.Runs)
			}
		}
		got, ok, err := st.GetSpec(id)
		if err != nil || !ok {
			t.Fatalf("pass %d: spec: ok=%v err=%v", pass, ok, err)
		}
		cfg, err := got.SweepConfig()
		if err != nil {
			t.Fatal(err)
		}
		computed := 0
		pts, err := RunCached(context.Background(), st, cfg, func(_ experiments.Shard, cached bool) {
			if !cached {
				computed++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if computed != 0 {
			t.Errorf("pass %d: resume computed %d shards, want a full cache hit", pass, computed)
		}
		if blob, err := json.Marshal(pts); err != nil || !bytes.Equal(blob, wantResult) {
			t.Errorf("pass %d: resumed result bytes differ:\n%s\nwant\n%s", pass, blob, wantResult)
		}
		stored, ok, err := st.GetResult(id)
		if err != nil || !ok {
			t.Fatalf("pass %d: result: ok=%v err=%v", pass, ok, err)
		}
		if blob, err := json.Marshal(stored); err != nil || !bytes.Equal(blob, wantResult) {
			t.Errorf("pass %d: stored result bytes differ", pass)
		}
		mustClose(t, st)
		for _, gone := range []string{"shards", "jobs"} {
			if _, err := os.Stat(filepath.Join(dir, gone)); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("pass %d: legacy %s/ still present (err %v)", pass, gone, err)
			}
		}
		if err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasPrefix(d.Name(), ".tmp-") {
				t.Errorf("pass %d: stray %s survived the import", pass, path)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFsck: a clean store passes; a torn tail and a damaged record are
// reported and fail; -repair compacts them away and keeps every intact
// shard and the pin written after the damaged record.
func TestFsck(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	fakes := []fake{fakeOf(t, 0), fakeOf(t, 1), fakeOf(t, 2)}
	for _, f := range fakes {
		f.put(t, st)
	}
	id, err := SpecKey(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSpec(id, testSpec()); err != nil {
		t.Fatal(err)
	}
	last, _ := indexed(st, fakes[2].key)
	seg := st.segmentPath(last.seg.seq)
	mustClose(t, st)

	if _, err := Fsck(filepath.Join(dir, "missing"), false); err == nil {
		t.Error("fsck accepted a missing directory")
	}
	if _, err := Fsck(t.TempDir(), false); err == nil {
		t.Error("fsck accepted a directory that holds no store")
	}
	rep, err := Fsck(dir, false)
	if err != nil || rep.Damaged() || rep.Records != 4 || rep.Shards != 3 || rep.Pins != 1 {
		t.Fatalf("clean store: %+v, %v", rep, err)
	}
	// Damage the last shard and append a torn half-record after the pin.
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[last.off+last.n-1] ^= 0x40
	b = append(b, b[:20]...)
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(dir, false)
	if err != nil || !rep.Damaged() || rep.Records != 3 || rep.Bad != 1 || rep.TornBytes != 20 ||
		rep.Shards != 2 || rep.Pins != 1 || rep.Repaired {
		t.Fatalf("damaged store: %+v, %v", rep, err)
	}
	if rep, err = Fsck(dir, true); err != nil || !rep.Repaired {
		t.Fatalf("repair: %+v, %v", rep, err)
	}
	rep, err = Fsck(dir, false)
	if err != nil || rep.Damaged() || rep.Records != 3 || rep.Shards != 2 || rep.Pins != 1 {
		t.Fatalf("repaired store: %+v, %v", rep, err)
	}
	st = mustOpen(t, dir)
	defer mustClose(t, st)
	for _, f := range fakes[:2] {
		if !f.hit(t, st) {
			t.Errorf("an intact shard was lost by the repair")
		}
	}
	if _, ok, err := st.GetSpec(id); err != nil || !ok {
		t.Errorf("the spec pin was lost by the repair: ok=%v err=%v", ok, err)
	}
}

// TestDamagedShardKeepsLaterPins damages a shard record written before
// a job's pins. Only that shard may be lost: the pins, which cannot be
// recomputed, and the later shard must survive a reopen, a compacting
// GC pass and a further reopen, and fsck -repair.
func TestDamagedShardKeepsLaterPins(t *testing.T) {
	pristine := t.TempDir()
	st := mustOpen(t, pristine)
	fakes := []fake{fakeOf(t, 0), fakeOf(t, 1), fakeOf(t, 2)}
	fakes[0].put(t, st)
	fakes[1].put(t, st)
	id, err := SpecKey(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	pts := []experiments.PointResult{{PER: 3e-3, LERs: []float64{0.125}}}
	if err := st.PutSpec(id, testSpec()); err != nil {
		t.Fatal(err)
	}
	if err := st.PutResult(id, pts); err != nil {
		t.Fatal(err)
	}
	fakes[2].put(t, st)
	// A hit under a bound appends a touch record, so the GC pass below
	// has superseded bytes to compact away.
	st.SetMaxBytes(1 << 40)
	fakes[0].hit(t, st)
	flipShardByte(t, st, fakes[1].key)
	mustClose(t, st)

	intact := func(st *Store, when string) {
		t.Helper()
		if got, ok, err := st.GetResult(id); err != nil || !ok || !reflect.DeepEqual(got, pts) {
			t.Errorf("%s: result pin: %+v ok=%v err=%v", when, got, ok, err)
		}
		if _, ok, err := st.GetSpec(id); err != nil || !ok {
			t.Errorf("%s: spec pin: ok=%v err=%v", when, ok, err)
		}
		for i, f := range fakes {
			if hit := f.hit(t, st); hit != (i != 1) {
				t.Errorf("%s: shard %d hit=%v", when, i, hit)
			}
		}
	}

	dir := t.TempDir()
	copyTree(t, pristine, dir)
	st = mustOpen(t, dir)
	intact(st, "reopened")
	if res, err := st.GC(1 << 40); err != nil || res.ReclaimedBytes == 0 {
		t.Fatalf("GC = %+v, %v; want a compacting pass", res, err)
	}
	intact(st, "after GC")
	mustClose(t, st)
	st = mustOpen(t, dir)
	intact(st, "reopened after GC")
	mustClose(t, st)

	dir = t.TempDir()
	copyTree(t, pristine, dir)
	rep, err := Fsck(dir, false)
	if err != nil || rep.Bad != 1 || rep.TornBytes != 0 || rep.Shards != 2 || rep.Pins != 2 {
		t.Fatalf("fsck: %+v, %v", rep, err)
	}
	if rep, err = Fsck(dir, true); err != nil || !rep.Repaired {
		t.Fatalf("fsck -repair: %+v, %v", rep, err)
	}
	st = mustOpen(t, dir)
	intact(st, "after fsck -repair")
	mustClose(t, st)
}

// TestCompactionKeepsDamagedPins: a pin damaged under an open store
// fails its read in a compaction. The pass must fail and leave the log
// and the index as they were, so only fsck -repair drops the pin.
func TestCompactionKeepsDamagedPins(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	f := fakeOf(t, 0)
	f.put(t, st)
	id, err := SpecKey(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSpec(id, testSpec()); err != nil {
		t.Fatal(err)
	}
	f.put(t, st) // a superseded copy for the pass to compact away
	d, _ := parseDigest(id)
	st.mu.Lock()
	l := st.index[ikey{kindSpec, d}]
	st.mu.Unlock()
	seg, err := os.OpenFile(st.segmentPath(l.seg.seq), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteAt([]byte{'!'}, l.off+l.n-crcBytes-1); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	before := dataFiles(t, dir)
	if _, err := st.GC(1 << 40); err == nil {
		t.Fatal("a compaction over a damaged pin succeeded")
	}
	if after := dataFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("the failed pass changed the segments: %v, was %v", after, before)
	}
	if !f.hit(t, st) {
		t.Error("the failed pass lost a shard")
	}
	if _, _, err := st.GetSpec(id); err == nil {
		t.Error("the damaged spec pin read back without an error")
	}
	mustClose(t, st)
	rep, err := Fsck(dir, true)
	if err != nil || !rep.Repaired || rep.Bad != 1 || rep.Shards != 1 || rep.Pins != 0 {
		t.Fatalf("fsck -repair: %+v, %v", rep, err)
	}
}

// TestOpenKeepsForeignFiles: Open looks for the earlier layout only in a
// directory that already held a store, and then deletes only the files
// it recognizes. A directory that never held a store keeps its shards/
// and jobs/ trees whole.
func TestOpenKeepsForeignFiles(t *testing.T) {
	key := fakeOf(t, 0).key
	foreign := []string{
		filepath.Join("shards", "y"),
		filepath.Join("shards", key[:2], key+".json"),
		filepath.Join("jobs", "x"),
		filepath.Join("jobs", key, "result.json"),
		".tmp-1",
	}
	write := func(dir string, rels []string) {
		t.Helper()
		for _, rel := range rels {
			p := filepath.Join(dir, rel)
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, []byte("not a store file"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	present := func(dir string, rels []string, want bool) {
		t.Helper()
		for _, rel := range rels {
			if _, err := os.Stat(filepath.Join(dir, rel)); (err == nil) != want {
				t.Errorf("%s: present=%v, want %v (err %v)", rel, err == nil, want, err)
			}
		}
	}

	plain := t.TempDir()
	write(plain, foreign)
	mustClose(t, mustOpen(t, plain))
	present(plain, foreign, true)

	// In a store, the unrecognized files stay and the recognized ones go,
	// undecodable ones included: they were misses or errors already.
	store := t.TempDir()
	if err := os.WriteFile(filepath.Join(store, "VERSION"), []byte(Version+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := []string{
		filepath.Join("shards", "notes.txt"),
		filepath.Join("shards", "zz", key+".json"),
		filepath.Join("shards", key[:2], "other.json"),
		filepath.Join("jobs", "x", "spec.json"),
		filepath.Join("jobs", key, "notes.txt"),
	}
	write(store, append(foreign[1:2:2], append(foreign[3:], other...)...))
	st := mustOpen(t, store)
	if _, ok := st.GetShard(key, 2, 1); ok {
		t.Error("an undecodable legacy shard was imported")
	}
	mustClose(t, st)
	present(store, other, true)
	present(store, []string{foreign[1], foreign[3], foreign[4]}, false)
}

// TestConcurrentStore runs puts, gets, touches and GC passes from
// several goroutines. Every hit must be exactly what was put, and the
// pins must survive every pass. Run it under -race -count=10.
func TestConcurrentStore(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	defer mustClose(t, st)
	const keys = 48
	fakes := make([]fake, keys)
	for i := range fakes {
		fakes[i] = fakeOf(t, i)
	}
	id, err := SpecKey(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSpec(id, testSpec()); err != nil {
		t.Fatal(err)
	}
	one := int64(len(appendRecord(nil, kindShard, digest{}, 0, appendShardBody(nil, fakes[0].seed, fakes[0].runs))))
	st.SetMaxBytes(keys * one / 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				f := fakes[rng.Intn(keys)]
				if rng.Intn(3) == 0 {
					if err := st.PutShard(f.key, f.seed, f.runs); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if runs, ok := st.GetShard(f.key, len(f.runs), f.seed); ok && !reflect.DeepEqual(runs, f.runs) {
					t.Errorf("served %+v for a shard put as %+v", runs, f.runs)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := st.GC(int64(i%4) * keys * one / 4); err != nil {
				t.Error(err)
				return
			}
			if _, ok, err := st.GetSpec(id); err != nil || !ok {
				t.Errorf("spec pin lost under GC: ok=%v err=%v", ok, err)
			}
			_ = st.Stats()
		}
	}()
	wg.Wait()
}
