// Package store is the trusted node's crash-safe storage engine: a
// write-ahead log with group commit, periodic snapshots with log
// compaction, CRC-framed records that detect torn tails, and encryption at
// rest for cor vault records (reusing the internal/cor sealing path).
//
// The durability contract is the one TinMan's security argument needs
// (§3.4: the node is the system of record for cors and audit evidence):
// every vault mutation, audit append, and policy change is framed into the
// WAL and fsynced before the operation is acknowledged, and recovery after
// kill -9 replays the latest valid snapshot plus the WAL to a gap-free
// audit Seq — including after a crash between snapshot write and log
// truncation, and after a second crash during recovery itself.
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
	recSnapHdr byte = 4 // payload: JSON snapshot header; lsn = covered LSN
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
const (
	frameHdrLen  = 4 + 4    // length + crc
	frameMetaLen = 1 + 8    // type + lsn
	maxFrameLen  = 16 << 20 // sanity cap; no record approaches this
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTornFrame marks a frame that cannot be decoded — a torn or truncated
// tail, or flipped bits. Recovery treats it as "the log ends here".
var errTornFrame = errors.New("store: torn or corrupt frame")

// appendFrame appends one framed record to dst and returns the result.
func appendFrame(dst []byte, typ byte, lsn uint64, payload []byte) []byte {
	bodyLen := frameMetaLen + len(payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	crcAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc placeholder
	bodyAt := len(dst)
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[bodyAt:], castagnoli)
	binary.LittleEndian.PutUint32(dst[crcAt:], crc)
	return dst
}

// appendAuditFrame frames an audit entry, encoding the payload straight
// into dst — the append hot path allocates no intermediate buffer.
func appendAuditFrame(dst []byte, lsn uint64, e audit.Entry) []byte {
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // length placeholder
	crcAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc placeholder
	bodyAt := len(dst)
	dst = append(dst, recAudit)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = encodeAudit(dst, e)
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-bodyAt))
	binary.LittleEndian.PutUint32(dst[crcAt:], crc32.Checksum(dst[bodyAt:], castagnoli))
	return dst
}

// readFrame decodes the frame at buf[off:]. It returns the frame fields and
// the offset just past the frame. Any failure — short header, absurd
// length, short body, crc mismatch, unknown type — returns errTornFrame:
// the valid prefix of the file ends at off.
func readFrame(buf []byte, off int) (typ byte, lsn uint64, payload []byte, next int, err error) {
	if off+frameHdrLen > len(buf) {
		return 0, 0, nil, off, errTornFrame
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[off:]))
	if bodyLen < frameMetaLen || bodyLen > maxFrameLen {
		return 0, 0, nil, off, errTornFrame
	}
	crc := binary.LittleEndian.Uint32(buf[off+4:])
	bodyAt := off + frameHdrLen
	if bodyAt+bodyLen > len(buf) {
		return 0, 0, nil, off, errTornFrame
	}
	body := buf[bodyAt : bodyAt+bodyLen]
	if crc32.Checksum(body, castagnoli) != crc {
		return 0, 0, nil, off, errTornFrame
	}
	typ = body[0]
	if typ < recAudit || typ > recSnapEnd {
		return 0, 0, nil, off, errTornFrame
	}
	lsn = binary.LittleEndian.Uint64(body[1:])
	payload = body[frameMetaLen:]
	return typ, lsn, payload, bodyAt + bodyLen, nil
}

// frameSize returns the on-disk size of a frame with the given payload.
func frameSize(payloadLen int) int { return frameHdrLen + frameMetaLen + payloadLen }
