// Package audit implements the trusted node's append-only cor access log
// (§3.4): "Each record includes timestamp, application hash, cor ID and
// network domain. Any abnormal activity will be reported to the user."
package audit

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome records whether an access was served.
type Outcome uint8

const (
	// OutcomeAllowed means the access passed policy.
	OutcomeAllowed Outcome = iota
	// OutcomeDenied means policy refused it.
	OutcomeDenied
)

func (o Outcome) String() string {
	if o == OutcomeAllowed {
		return "allowed"
	}
	return "denied"
}

// Entry is one immutable log record.
type Entry struct {
	Seq      uint64
	Time     time.Time
	AppHash  string
	CorID    string
	DeviceID string
	Domain   string
	Outcome  Outcome
	Detail   string
	// DeviceSeq is the per-device sequence number, minted by the device's
	// shard on the trusted node that owned it at append time. Unlike Seq
	// (per-log, per-node) it survives a device moving between nodes: the
	// counter travels with the shard, so interleaving several nodes' logs by
	// DeviceSeq reconstructs one gap-free per-device history. 0 means the
	// entry predates sharding (or was appended without a device).
	DeviceSeq uint64
	// PolicyVersion and PolicyHash stamp the exact policy ruleset the
	// decision was made under (policy.Stamp): during a hot-reload, entries
	// show which checks ran against the old document and which against the
	// new. Zero/empty on entries that predate policy versioning.
	PolicyVersion uint64
	PolicyHash    string
}

// String renders an entry as a single log line.
func (e Entry) String() string {
	s := fmt.Sprintf("#%d %s app=%s cor=%s dev=%s domain=%s %s %s",
		e.Seq, e.Time.Format(time.RFC3339), short(e.AppHash), e.CorID, e.DeviceID, e.Domain, e.Outcome, e.Detail)
	if e.PolicyVersion != 0 || e.PolicyHash != "" {
		s += fmt.Sprintf(" policy=v%d/%s", e.PolicyVersion, e.PolicyHash)
	}
	return s
}

// numShards stripes the log so concurrent appends from many connections
// do not serialize on one mutex. Entries land in the shard of their
// (device, cor) pair, which keeps anomaly detection — a count of one
// pair's recent denials — local to a single shard.
const numShards = 16

// A (device, cor) pair with AnomalyThreshold denials within AnomalyWindow
// is reported as an anomaly.
const (
	AnomalyThreshold = 3
	AnomalyWindow    = time.Hour
)

// pair names the (device, cor) pair an entry belongs to.
type pair struct{ deviceID, corID string }

// shard is one lock-striped segment of the log.
type shard struct {
	mu      sync.Mutex
	entries []Entry
	// denials holds each pair's denial times from AnomalyWindow before its
	// latest denial onwards, oldest first.
	denials map[pair][]time.Time
}

// Log is the append-only audit trail. It is safe for concurrent use:
// entries are striped across shards by (device, cor), and the global
// monotonic Seq comes from an atomic counter, so appends from different
// pairs never contend on a shared lock.
type Log struct {
	seq    atomic.Uint64
	shards [numShards]shard
	now    func() time.Time

	// subMu guards subscribers; appends take only the read lock.
	subMu sync.RWMutex
	// subscribers receive every appended entry (the "reported to the user"
	// channel).
	subscribers []func(Entry)

	anomMu    sync.Mutex
	anomalies []Anomaly
}

// Anomaly is a detected abnormal pattern.
type Anomaly struct {
	Time     time.Time
	DeviceID string
	CorID    string
	Denials  int
	Window   time.Duration
}

func (a Anomaly) String() string {
	return fmt.Sprintf("ANOMALY %s: %d denials for cor %s from device %s within %v",
		a.Time.Format(time.RFC3339), a.Denials, a.CorID, a.DeviceID, a.Window)
}

// NewLog creates a log reading time from now (nil means time.Now).
func NewLog(now func() time.Time) *Log {
	if now == nil {
		now = time.Now
	}
	return &Log{now: now}
}

// shardSeed keys the shard hash; process-local is fine, the mapping only
// has to be stable for the life of the Log.
var shardSeed = maphash.MakeSeed()

// shardFor picks the shard holding a (device, cor) pair's entries.
func (l *Log) shardFor(deviceID, corID string) *shard {
	var h maphash.Hash
	h.SetSeed(shardSeed)
	h.WriteString(deviceID)
	h.WriteByte(0)
	h.WriteString(corID)
	return &l.shards[h.Sum64()%numShards]
}

// AppendEntry records a caller-built entry, minting its Seq and Time (any
// caller-supplied values for those two fields are overwritten). On the
// trusted node only the operation commit calls it, under the lock that
// orders Seq with the store's LSNs (internal/node).
func (l *Log) AppendEntry(e Entry) Entry {
	e.Seq = l.seq.Add(1)
	e.Time = l.now()
	sh := l.shardFor(e.DeviceID, e.CorID)
	sh.mu.Lock()
	sh.entries = append(sh.entries, e)
	l.detectAnomalyLocked(sh, e)
	sh.mu.Unlock()

	l.subMu.RLock()
	subs := l.subscribers
	l.subMu.RUnlock()
	for _, s := range subs {
		s(e)
	}
	return e
}

// detectAnomalyLocked flags repeated denials for the same device+cor. The
// caller holds sh.mu. A denial joins its pair's window, which drops the
// times before e.Time-AnomalyWindow from its front, so the cost is O(1)
// amortized however long the log is.
func (l *Log) detectAnomalyLocked(sh *shard, e Entry) {
	if e.Outcome != OutcomeDenied {
		return
	}
	if sh.denials == nil {
		sh.denials = make(map[pair][]time.Time)
	}
	k := pair{e.DeviceID, e.CorID}
	w := sh.denials[k]
	cutoff := e.Time.Add(-AnomalyWindow)
	i := 0
	for i < len(w) && w[i].Before(cutoff) {
		i++
	}
	if i == len(w) {
		w = nil // every earlier denial expired: release the old times
	} else {
		w = w[i:]
	}
	w = append(w, e.Time)
	sh.denials[k] = w
	if len(w) >= AnomalyThreshold {
		l.anomMu.Lock()
		l.anomalies = append(l.anomalies, Anomaly{
			Time: e.Time, DeviceID: e.DeviceID, CorID: e.CorID,
			Denials: len(w), Window: AnomalyWindow,
		})
		l.anomMu.Unlock()
	}
}

// Subscribe registers a callback invoked for every appended entry.
func (l *Log) Subscribe(fn func(Entry)) {
	l.subMu.Lock()
	defer l.subMu.Unlock()
	// Copy-on-write so AppendEntry can read the slice under the read lock while
	// holding no reference past the call.
	subs := make([]func(Entry), len(l.subscribers), len(l.subscribers)+1)
	copy(subs, l.subscribers)
	l.subscribers = append(subs, fn)
}

// Len returns the number of entries.
func (l *Log) Len() int {
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Entries returns a copy of all entries in Seq order.
func (l *Log) Entries() []Entry {
	return l.collect(func(Entry) bool { return true })
}

// collect gathers matching entries from every shard, sorted by Seq.
func (l *Log) collect(match func(Entry) bool) []Entry {
	var out []Entry
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if match(e) {
				out = append(out, e)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Query filters entries; zero-valued fields match everything.
type Query struct {
	CorID    string
	DeviceID string
	Outcome  *Outcome
	// Since/Until bound the entry timestamps: Since is inclusive, Until is
	// exclusive, so [Since, Until) windows tile without overlap.
	Since time.Time
	Until time.Time
}

// Find returns entries matching the query in Seq order.
func (l *Log) Find(q Query) []Entry {
	return l.collect(func(e Entry) bool {
		if q.CorID != "" && e.CorID != q.CorID {
			return false
		}
		if q.DeviceID != "" && e.DeviceID != q.DeviceID {
			return false
		}
		if q.Outcome != nil && e.Outcome != *q.Outcome {
			return false
		}
		if !q.Since.IsZero() && e.Time.Before(q.Since) {
			return false
		}
		if !q.Until.IsZero() && !e.Time.Before(q.Until) {
			return false
		}
		return true
	})
}

// Anomalies returns detected anomalies: one per denial after which its
// (device, cor) pair has AnomalyThreshold or more denials in
// [Time-AnomalyWindow, Time], with that count as Denials, in the order the
// denials were appended or restored. For a log in time order — what
// AppendEntry writes under one lock, what the store recovers, a -json
// export — these are exactly the anomalies of a scan back over the
// pair's shard from each denial.
func (l *Log) Anomalies() []Anomaly {
	l.anomMu.Lock()
	defer l.anomMu.Unlock()
	return append([]Anomaly(nil), l.anomalies...)
}

// Restore swaps in a recovered entry set (replayed from a durable store's
// snapshot + WAL, or loaded from a -json export): the entries go to their
// shards in the given order, anomaly detection runs over them in the same
// pass, and the sequence counter resumes after the highest restored Seq.
// For entries in log order the log is indistinguishable from one that
// never crashed, its anomalies included.
func (l *Log) Restore(entries []Entry) {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sh.entries, sh.denials = nil, nil
		sh.mu.Unlock()
	}
	l.anomMu.Lock()
	l.anomalies = nil
	l.anomMu.Unlock()
	var maxSeq uint64
	for _, e := range entries {
		sh := l.shardFor(e.DeviceID, e.CorID)
		sh.mu.Lock()
		sh.entries = append(sh.entries, e)
		l.detectAnomalyLocked(sh, e)
		sh.mu.Unlock()
		maxSeq = max(maxSeq, e.Seq)
	}
	l.seq.Store(maxSeq)
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
