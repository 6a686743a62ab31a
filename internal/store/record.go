package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"tinman/internal/audit"
)

// This file holds the payload codecs. Audit entries use a hand-rolled
// binary encoding because appends are the hot path (the allocs/op and
// fsyncs/op guards in bench_guard_test.go pin it); vault and policy
// records are JSON — rare, administrative, and in the vault case sealed
// before framing so no cor plaintext ever reaches the disk.

// VaultRecord is the durable form of one cor.Record. It is an upsert keyed
// by ID: replaying a record with a known ID replaces the earlier state.
type VaultRecord struct {
	ID          string `json:"id"`
	Plaintext   string `json:"plaintext"`
	Description string `json:"description,omitempty"`
	Bit         int    `json:"bit"`
	// Class is the sensitivity tier (empty on pre-class records: the
	// default class applies on replay).
	Class string `json:"class,omitempty"`
}

// PolicyRecord is one installed policy document: Snapshot is its
// policy.Snapshot JSON and Version its number. Every policy change logs a
// whole document, so the latest record is the whole durable policy.
type PolicyRecord struct {
	Version  uint64          `json:"version"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// vaultAD binds sealed blobs to their role so a vault blob cannot be
// replayed as something else.
var vaultAD = []byte("tinman-store-vault")

// appendUvarint / appendString are the primitive encoders.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeAudit appends e's binary form to dst. Field order matches
// decodeAudit; times are stored as Unix nanoseconds, which round-trips the
// virtual clocks the simulations use (time.Unix(0,0).Add(d)) exactly.
func encodeAudit(dst []byte, e audit.Entry) []byte {
	dst = appendUvarint(dst, e.Seq)
	dst = appendUvarint(dst, uint64(e.Time.UnixNano()))
	dst = appendString(dst, e.AppHash)
	dst = appendString(dst, e.CorID)
	dst = appendString(dst, e.DeviceID)
	dst = appendString(dst, e.Domain)
	dst = append(dst, byte(e.Outcome))
	dst = appendString(dst, e.Detail)
	dst = appendUvarint(dst, e.DeviceSeq)
	dst = appendUvarint(dst, e.PolicyVersion)
	dst = appendString(dst, e.PolicyHash)
	return dst
}

type auditDecoder struct {
	buf []byte
	off int
	err error
}

func (d *auditDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("store: audit record truncated at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *auditDecoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)-d.off) < n {
		d.err = fmt.Errorf("store: audit record string overruns at %d", d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *auditDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = fmt.Errorf("store: audit record truncated at %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// decodeAudit parses an encodeAudit payload.
func decodeAudit(p []byte) (audit.Entry, error) {
	d := auditDecoder{buf: p}
	e := audit.Entry{
		Seq: d.uvarint(),
	}
	nano := d.uvarint()
	e.Time = time.Unix(0, int64(nano))
	e.AppHash = d.string()
	e.CorID = d.string()
	e.DeviceID = d.string()
	e.Domain = d.string()
	e.Outcome = audit.Outcome(d.byte())
	e.Detail = d.string()
	e.DeviceSeq = d.uvarint()
	e.PolicyVersion = d.uvarint()
	e.PolicyHash = d.string()
	if d.err != nil {
		return audit.Entry{}, d.err
	}
	if d.off != len(p) {
		return audit.Entry{}, fmt.Errorf("store: audit record has %d trailing bytes", len(p)-d.off)
	}
	if e.Outcome > audit.OutcomeDenied {
		return audit.Entry{}, fmt.Errorf("store: audit record has invalid outcome %d", e.Outcome)
	}
	return e, nil
}

func encodeVault(r VaultRecord) ([]byte, error) { return json.Marshal(r) }
func decodeVault(p []byte) (VaultRecord, error) {
	var r VaultRecord
	err := json.Unmarshal(p, &r)
	return r, err
}
func encodePolicy(r PolicyRecord) ([]byte, error) { return json.Marshal(r) }
func decodePolicy(p []byte) (PolicyRecord, error) {
	var r PolicyRecord
	err := json.Unmarshal(p, &r)
	return r, err
}
