package sweepstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const segmentSuffix = ".seg"

// segmentPath names segment seq. Fixed-width hex makes directory order
// sequence order; sequence numbers, not the clock, name segments.
func (s *Store) segmentPath(seq uint64) string {
	return filepath.Join(s.root, fmt.Sprintf("%016x%s", seq, segmentSuffix))
}

// segmentSeqs lists the segment files under the root in sequence order.
func (s *Store) segmentSeqs() ([]uint64, error) {
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("sweepstore: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), segmentSuffix)
		if !ok || len(name) != 16 || !e.Type().IsRegular() {
			continue
		}
		if seq, err := strconv.ParseUint(name, 16, 64); err == nil {
			seqs = append(seqs, seq)
		}
	}
	return seqs, nil
}

// segRun is a run of segments filled by appends, one write(2) per
// record: a record that would push the current segment past
// segmentBytes starts a fresh one.
type segRun struct {
	segs []*segment
	cur  *segment
}

func (r *segRun) append(s *Store, rec []byte) (loc, error) {
	if r.cur == nil || r.cur.size > 0 && r.cur.size+int64(len(rec)) > segmentBytes {
		seq := s.nextSeq
		f, err := os.OpenFile(s.segmentPath(seq), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if err != nil {
			return loc{}, fmt.Errorf("sweepstore: %w", err)
		}
		s.nextSeq++
		r.cur = &segment{seq: seq, f: f}
		r.segs = append(r.segs, r.cur)
	}
	seg := r.cur
	if _, err := seg.f.Write(rec); err != nil {
		// A short write leaves a torn tail that would hide every later
		// record of this segment: move on to a fresh one.
		r.cur = nil
		return loc{}, fmt.Errorf("sweepstore: append to segment %d: %w", seg.seq, err)
	}
	l := loc{seg: seg, off: seg.size, n: int64(len(rec))}
	seg.size += l.n
	return l, nil
}

// sync makes the run's segments and their directory entries durable.
func (r *segRun) sync(s *Store) error {
	if len(r.segs) == 0 {
		return nil
	}
	for _, seg := range r.segs {
		if err := seg.f.Sync(); err != nil {
			return err
		}
	}
	return syncDir(s.root)
}

// syncDir makes the directory entries of new files durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// remove closes and deletes every segment of the run.
func (r *segRun) remove(s *Store) error {
	var errs []error
	for _, seg := range r.segs {
		errs = append(errs, seg.f.Close(), os.Remove(s.segmentPath(seg.seq)))
	}
	*r = segRun{}
	return errors.Join(errs...)
}

// scanReport is what Open's scan found, for fsck.
type scanReport struct {
	records   int   // well-formed records
	bad       int   // framed records whose CRC failed
	tornBytes int64 // bytes from a segment's first unframed byte to its end
}

// scanSegment opens segment seq, indexes its records in order and adds
// it to the log. A record whose framing is intact but whose CRC fails
// is skipped: its length still locates the next record. Bad framing, or
// a length past the segment's end, ends the scan: nothing after it can
// be located, so it is a miss.
func (s *Store) scanSegment(seq uint64) error {
	f, err := os.Open(s.segmentPath(seq))
	if err != nil {
		return fmt.Errorf("sweepstore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		return errors.Join(fmt.Errorf("sweepstore: %w", err), f.Close())
	}
	seg := &segment{seq: seq, f: f, size: fi.Size()}
	s.log.segs = append(s.log.segs, seg)
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, seg.size), 64<<10)
	var buf []byte
	for off := int64(0); off < seg.size; {
		rec, err := nextRecord(br, seg.size-off, buf)
		if err != nil {
			return fmt.Errorf("sweepstore: scan segment %d: %w", seq, err)
		}
		if rec == nil {
			s.scan.tornBytes += seg.size - off
			break
		}
		if r, err := parseRecord(rec); err != nil {
			s.scan.bad++
		} else {
			s.scan.records++
			s.apply(r, loc{seg: seg, off: off, n: int64(len(rec))})
		}
		off += int64(len(rec))
		buf = rec
	}
	return nil
}

// nextRecord reads the bytes of the next record, as long as its framing
// says, into buf's storage. It returns nil when the framing is bad or
// the record does not fit in the rest bytes left in the segment; only a
// failed read is an error.
func nextRecord(br *bufio.Reader, rest int64, buf []byte) ([]byte, error) {
	hdr, err := br.Peek(int(min(headerBytes+binary.MaxVarintLen64, rest)))
	if err != nil {
		return nil, err
	}
	total := int(frameLen(hdr, rest))
	if total == 0 {
		return nil, nil
	}
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
