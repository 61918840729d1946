package sweepstore

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/experiments"
)

// A record is one checksummed entry of a segment file:
//
//	magic "pfs" | format byte | kind | 32-byte key digest |
//	access time (int64 Unix ns, little-endian) | uvarint body length |
//	body | CRC-32C (little-endian) over every byte before it
//
// The format byte versions this framing and the shard body codec; it is
// not part of any key, so changing it never moves a shard address.
const (
	recordFormat = 1
	// headerBytes is the fixed prefix before the body length.
	headerBytes = 3 + 1 + 1 + digestBytes + 8
	crcBytes    = 4
	digestBytes = 32
)

var recordMagic = [3]byte{'p', 'f', 's'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// kind tags what a record holds.
type kind byte

const (
	kindShard  kind = 1 // a shard's runs, keyed by its ShardKey
	kindSpec   kind = 2 // a job's normalized spec JSON, keyed by its job ID
	kindResult kind = 3 // a job's folded PointResults JSON, keyed by its job ID
	kindTouch  kind = 4 // an access-time bump of the shard with this key; no body
)

func (k kind) valid() bool { return k >= kindShard && k <= kindTouch }

func (k kind) String() string {
	if k.valid() {
		return [...]string{"shard", "spec", "result", "touch"}[k-kindShard]
	}
	return fmt.Sprintf("kind %d", byte(k))
}

// digest is a decoded 64-hex-digit content address.
type digest [digestBytes]byte

// ValidKey reports whether s is a well-formed content address: 64
// lowercase hex digits, as ShardKey and SpecKey return. Job IDs that
// arrive from outside the program must pass it before they name
// anything in the store.
func ValidKey(s string) bool {
	_, ok := parseDigest(s)
	return ok
}

func parseDigest(s string) (digest, bool) {
	var d digest
	if len(s) != 2*digestBytes || !lowerHex(s) {
		return d, false
	}
	if _, err := hex.Decode(d[:], []byte(s)); err != nil {
		return d, false
	}
	return d, true
}

func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// appendRecord frames body as one record and appends it to b.
func appendRecord(b []byte, k kind, d digest, atime int64, body []byte) []byte {
	start := len(b)
	b = slices.Grow(b, headerBytes+binary.MaxVarintLen64+len(body)+crcBytes)
	b = append(b, recordMagic[:]...)
	b = append(b, recordFormat, byte(k))
	b = append(b, d[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(atime))
	b = binary.AppendUvarint(b, uint64(len(body)))
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

// record is a parsed record; raw (the whole record) and body alias the
// buffer it was parsed from.
type record struct {
	kind  kind
	key   digest
	atime int64
	body  []byte
	raw   []byte
}

var errBadRecord = errors.New("sweepstore: bad record")

// frameLen checks the framing at the start of b (magic, format byte,
// kind and body length) and returns the length of the record it
// frames. It returns 0 when b does not start a record or the record
// would not fit in the rest bytes available; the CRC is not checked.
func frameLen(b []byte, rest int64) int64 {
	if len(b) < headerBytes+1 || [3]byte(b[:3]) != recordMagic || b[3] != recordFormat || !kind(b[4]).valid() {
		return 0
	}
	blen, n := binary.Uvarint(b[headerBytes:])
	avail := rest - headerBytes - int64(n) - crcBytes
	if n <= 0 || avail < 0 || blen > uint64(avail) {
		return 0
	}
	return headerBytes + int64(n) + int64(blen) + crcBytes
}

// parseRecord checks that b is exactly one well-framed record with a
// matching CRC and returns it.
func parseRecord(b []byte) (record, error) {
	var r record
	if n := frameLen(b, int64(len(b))); n == 0 || n != int64(len(b)) {
		return r, errBadRecord
	}
	end := len(b) - crcBytes
	if crc32.Checksum(b[:end], castagnoli) != binary.LittleEndian.Uint32(b[end:]) {
		return r, errBadRecord
	}
	_, n := binary.Uvarint(b[headerBytes:])
	r.kind = kind(b[4])
	copy(r.key[:], b[5:5+digestBytes])
	r.atime = int64(binary.LittleEndian.Uint64(b[5+digestBytes:]))
	r.body = b[headerBytes+n : end]
	r.raw = b
	return r, nil
}

// withAccessTime rewrites the access time of the valid record rec in
// place and reseals its CRC (used when compaction folds touches in).
func withAccessTime(rec []byte, atime int64) []byte {
	binary.LittleEndian.PutUint64(rec[5+digestBytes:], uint64(atime))
	end := len(rec) - crcBytes
	binary.LittleEndian.PutUint32(rec[end:], crc32.Checksum(rec[:end], castagnoli))
	return rec
}

// A shard body is the seed and the shot count followed by, per run, the
// nine integer fields of experiments.LERResult in declaration order
// (LER is derived on load), all as varints.
const shardFields = 9

func appendShardBody(b []byte, seed int64, runs []experiments.LERResult) []byte {
	// Counts are mostly one to three varint bytes; this sizes the
	// buffer once for a typical shard.
	b = slices.Grow(b, 2*binary.MaxVarintLen64+2*shardFields*len(runs))
	b = binary.AppendVarint(b, seed)
	b = binary.AppendUvarint(b, uint64(len(runs)))
	for i := range runs {
		r := &runs[i]
		for _, v := range [shardFields]int{r.Windows, r.LogicalErrors, r.CorrectionGates,
			r.CorrectionSlots, r.OpsIssued, r.SlotsIssued, r.OpsExecuted, r.SlotsExecuted,
			r.InjectedErrors} {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	return b
}

// decodeShardBody is the inverse of appendShardBody. It rejects any
// body that is not exactly one encoding, so trailing or missing bytes
// never decode as runs.
func decodeShardBody(b []byte) (int64, []experiments.LERResult, error) {
	seed, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errBadRecord
	}
	b = b[n:]
	shots, n := binary.Uvarint(b)
	// Every run takes at least shardFields bytes, which bounds the
	// allocation a damaged count can ask for.
	if n <= 0 || shots > uint64(len(b)-n)/shardFields {
		return 0, nil, errBadRecord
	}
	b = b[n:]
	runs := make([]experiments.LERResult, shots)
	for i := range runs {
		var f [shardFields]int
		for j := range f {
			v, n := binary.Varint(b)
			if n <= 0 {
				return 0, nil, errBadRecord
			}
			f[j] = int(v)
			b = b[n:]
		}
		runs[i] = experiments.LERResult{Windows: f[0], LogicalErrors: f[1], CorrectionGates: f[2],
			CorrectionSlots: f[3], OpsIssued: f[4], SlotsIssued: f[5], OpsExecuted: f[6],
			SlotsExecuted: f[7], InjectedErrors: f[8]}
	}
	if len(b) != 0 {
		return 0, nil, errBadRecord
	}
	return seed, runs, nil
}

func badKey(what, key string) error {
	return fmt.Errorf("sweepstore: invalid %s %q: want 64 lowercase hex digits", what, key)
}
