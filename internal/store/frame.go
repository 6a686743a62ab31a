// Package store is the trusted node's crash-safe storage engine: a
// write-ahead log with group commit, periodic snapshots with log
// compaction, CRC-framed records that detect torn tails, and encryption at
// rest for cor vault records (reusing the internal/cor sealing path).
//
// The durability contract is the one TinMan's security argument needs
// (§3.4: the node is the system of record for cors and audit evidence):
// each node operation hands its audit entries, vault upserts and policy
// document to one Store.Append, which is framed into the WAL as one unit
// and fsynced before the operation is acknowledged. Recovery after kill -9
// replays the latest valid snapshot plus the WAL, applying each Append
// whole or, when a crash tore it, not at all, to a gap-free audit Seq —
// including after a crash between snapshot write and log truncation, and
// after a second crash during recovery itself.
package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"tinman/internal/audit"
)

// Record types. Snapshot files and WAL segments share one frame format;
// the header/end types appear only in snapshots.
const (
	recAudit   byte = 1 // payload: binary audit entry (record.go)
	recVault   byte = 2 // payload: sealed vault record (encrypted at rest)
	recPolicy  byte = 3 // payload: JSON policy document
	recSnapHdr byte = 4 // payload: empty; lsn = covered LSN (snapshot start)
	recSnapEnd byte = 5 // payload: empty; lsn = covered LSN (validity mark)
)

// Frame layout:
//
//	[u32 length][u32 crc32c][u8 type][u64 lsn][payload]
//
// length counts type+lsn+payload (everything after the crc); the crc
// (Castagnoli) covers the same bytes. A frame whose length field, crc, or
// body cannot be read intact marks the torn tail of the file — recovery
// keeps everything before it and discards the rest.
// An Append of n records is n frames, the type byte of the first n-1
// flagged frameMore; recovery applies an Append only once its unflagged
// last frame is intact, so a torn Append goes with the tail.
const (
	frameHdrLen  = 4 + 4    // length + crc
	frameMetaLen = 1 + 8    // type + lsn
	maxFrameLen  = 16 << 20 // sanity cap; no record approaches this
	frameMore    = 0x80     // type flag: the Append continues in the next frame
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTornFrame marks a frame that cannot be decoded — a torn or truncated
// tail, or flipped bits. Recovery treats it as "the log ends here".
var errTornFrame = errors.New("store: torn or corrupt frame")

// frame is one decoded frame; typ has frameMore cleared.
type frame struct {
	typ     byte
	more    bool
	lsn     uint64
	payload []byte
}

// appendFrame appends one framed record to dst and returns the result.
func appendFrame(dst []byte, typ byte, lsn uint64, payload []byte) []byte {
	at := len(dst)
	return endFrame(append(beginFrame(dst, typ, lsn), payload...), at)
}

// appendAuditFrame frames an audit entry, encoding the payload straight
// into dst — the append hot path allocates no intermediate buffer.
func appendAuditFrame(dst []byte, typ byte, lsn uint64, e audit.Entry) []byte {
	at := len(dst)
	return endFrame(encodeAudit(beginFrame(dst, typ, lsn), e), at)
}

// beginFrame appends a frame up to its payload, length and crc zero.
func beginFrame(dst []byte, typ byte, lsn uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, 0) // length + crc
	dst = append(dst, typ)
	return binary.LittleEndian.AppendUint64(dst, lsn)
}

// endFrame fills in the length and crc of the frame that starts at dst[at:].
func endFrame(dst []byte, at int) []byte {
	body := dst[at+frameHdrLen:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.Checksum(body, castagnoli))
	return dst
}

// readFrame decodes the frame at buf[off:] and returns it with the offset
// just past it. Any failure — short header, absurd length, short body, crc
// mismatch, unknown type — returns errTornFrame: the valid prefix of the
// file ends at off.
func readFrame(buf []byte, off int) (frame, int, error) {
	if off+frameHdrLen > len(buf) {
		return frame{}, off, errTornFrame
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[off:]))
	if bodyLen < frameMetaLen || bodyLen > maxFrameLen {
		return frame{}, off, errTornFrame
	}
	crc := binary.LittleEndian.Uint32(buf[off+4:])
	bodyAt := off + frameHdrLen
	if bodyAt+bodyLen > len(buf) {
		return frame{}, off, errTornFrame
	}
	body := buf[bodyAt : bodyAt+bodyLen]
	if crc32.Checksum(body, castagnoli) != crc {
		return frame{}, off, errTornFrame
	}
	f := frame{
		typ:     body[0] &^ frameMore,
		more:    body[0]&frameMore != 0,
		lsn:     binary.LittleEndian.Uint64(body[1:]),
		payload: body[frameMetaLen:],
	}
	if f.typ < recAudit || f.typ > recSnapEnd {
		return frame{}, off, errTornFrame
	}
	return f, bodyAt + bodyLen, nil
}
