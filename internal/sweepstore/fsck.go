package sweepstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

// FsckReport is what Fsck found in a store.
type FsckReport struct {
	// Records counts well-formed records in the segments, superseded
	// ones included.
	Records int
	// Shards and Pins count live shard entries and live spec/result
	// entries.
	Shards, Pins int
	// Bad counts records that failed a check: a framed record whose CRC
	// fails, which the scan skips, and a live record that no longer
	// reads back or whose body does not decode.
	Bad int
	// TornBytes counts the bytes no scan reaches: from each segment's
	// first bad framing, or a length past its end, to the segment's end.
	TornBytes int64
	// Repaired reports that -repair compacted the damage away.
	Repaired bool
}

// Damaged reports whether the store holds bad records or torn bytes.
func (r FsckReport) Damaged() bool { return r.Bad > 0 || r.TornBytes > 0 }

// Fsck opens the store at dir (taking its lock, so it fails while a
// server has it open), verifies every record and decodes every live
// one. With repair set, a damaged store is compacted: the live records
// that pass are rewritten and everything else is dropped.
func Fsck(dir string, repair bool) (rep FsckReport, err error) {
	// Open would make a store of any directory; a mistyped path, or one
	// that never held a store, is an error.
	if _, err := os.Stat(filepath.Join(dir, "VERSION")); err != nil {
		return rep, fmt.Errorf("sweepstore: fsck: %s is not a sweep store: %w", dir, err)
	}
	s, err := Open(dir)
	if err != nil {
		return rep, err
	}
	defer func() {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	rep.Records, rep.Bad, rep.TornBytes = s.scan.records, s.scan.bad, s.scan.tornBytes
	var bad []ikey
	for k, l := range s.index {
		if r, err := readRecord(l, k.kind, k.key); err != nil || checkBody(k.kind, r.body) != nil {
			bad = append(bad, k)
		} else if k.kind == kindShard {
			rep.Shards++
		} else {
			rep.Pins++
		}
	}
	rep.Bad += len(bad)
	if !repair || !rep.Damaged() {
		return rep, nil
	}
	drop := make(map[ikey]bool, len(bad))
	for _, k := range bad {
		drop[k] = true
	}
	if err := s.compactLocked(drop); err != nil {
		return rep, err
	}
	rep.Repaired = true
	return rep, nil
}

// checkBody decodes a record body of kind k as a read would.
func checkBody(k kind, body []byte) error {
	var err error
	switch k {
	case kindShard:
		_, _, err = decodeShardBody(body)
	case kindSpec:
		err = json.Unmarshal(body, new(experiments.Spec))
	case kindResult:
		err = json.Unmarshal(body, new([]experiments.PointResult))
	}
	return err
}
