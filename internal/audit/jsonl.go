package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// The node's system of record is the store (internal/store). JSON lines
// are the export format: tinman-audit -json writes one WireJSON line per
// entry, and its file input and -merge read them back through ReadFrom.

// wireEntry is the JSON-lines form of an Entry.
type wireEntry struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	AppHash  string    `json:"app_hash"`
	CorID    string    `json:"cor_id"`
	DeviceID string    `json:"device_id"`
	Domain   string    `json:"domain"`
	Outcome  uint8     `json:"outcome"`
	Detail   string    `json:"detail,omitempty"`
	// DeviceSeq is the per-device sequence (Entry.DeviceSeq); omitted for
	// pre-sharding logs, which load back as DeviceSeq 0.
	DeviceSeq uint64 `json:"device_seq,omitempty"`
}

// WireJSON returns the entry's JSON-lines form, one line of an export.
func (e Entry) WireJSON() ([]byte, error) {
	return json.Marshal(wireEntry{
		Seq: e.Seq, Time: e.Time, AppHash: e.AppHash, CorID: e.CorID,
		DeviceID: e.DeviceID, Domain: e.Domain, Outcome: uint8(e.Outcome), Detail: e.Detail,
		DeviceSeq: e.DeviceSeq,
	})
}

// ReadFrom replaces the log's entries with the JSON-lines stream from r,
// as Restore does.
func (l *Log) ReadFrom(r io.Reader) (int64, error) {
	entries, err := readEntries(r)
	if err != nil {
		return 0, err
	}
	l.Restore(entries)
	return int64(len(entries)), nil
}

// readEntries decodes a JSON-lines stream into entries in stream order.
func readEntries(r io.Reader) ([]Entry, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var entries []Entry
	for {
		var we wireEntry
		if err := dec.Decode(&we); err == io.EOF {
			return entries, nil
		} else if err != nil {
			return nil, fmt.Errorf("audit: loading entry %d: %v", len(entries), err)
		}
		if we.Outcome > uint8(OutcomeDenied) {
			return nil, fmt.Errorf("audit: entry %d has invalid outcome %d", we.Seq, we.Outcome)
		}
		entries = append(entries, Entry{
			Seq: we.Seq, Time: we.Time, AppHash: we.AppHash, CorID: we.CorID,
			DeviceID: we.DeviceID, Domain: we.Domain, Outcome: Outcome(we.Outcome), Detail: we.Detail,
			DeviceSeq: we.DeviceSeq,
		})
	}
}

// LoadFile replaces the log's entries with the JSON-lines file at path; a
// missing file leaves the log empty and is not an error.
func (l *Log) LoadFile(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = l.ReadFrom(f)
	return err
}
