package node

import (
	"encoding/json"
	"sync"
	"time"
)

// ReplayCache is the trusted node's at-most-once dedup window. A client
// that saw an ambiguous transport failure — request sent, no reply — must
// replay under the same request ID rather than risk double-executing a
// non-idempotent operation (an offload, an injection arm, an audit-writing
// access, a derived-ID mint). The cache executes each ID's operation once
// and replays the recorded result to every duplicate.
//
// Duplicates that arrive while the original is still executing block until
// it finishes (the done channel provides the happens-before edge), so a
// retry can never observe a half-executed operation or trigger a second
// execution.
type ReplayCache struct {
	clock func() time.Time

	mu      sync.Mutex
	entries map[string]*replayEntry
	order   []string // insertion order, for window/size pruning
}

const (
	// replayWindow is how long a completed entry stays replayable. It must
	// comfortably exceed the client's whole retry budget.
	replayWindow = 5 * time.Minute
	// replayMax caps retained entries regardless of age.
	replayMax = 4096
)

// replayEntry records one deduplicated execution. val is written once,
// before done is closed; readers wait on done first.
type replayEntry struct {
	done chan struct{}
	val  any
	at   time.Time
}

func (e *replayEntry) finished() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// NewReplayCache builds a cache that reads the time from clock
// (simulations pass their virtual clock).
func NewReplayCache(clock func() time.Time) *ReplayCache {
	return &ReplayCache{clock: clock, entries: make(map[string]*replayEntry)}
}

// Do executes fn at most once per id within the window and returns its
// result; replayed reports whether the result came from the cache (or
// from waiting on a concurrent original) instead of a fresh execution.
// fn runs without the lock held, so slow operations do not serialize
// unrelated requests.
func (c *ReplayCache) Do(id string, fn func() any) (val any, replayed bool) {
	c.mu.Lock()
	if e, ok := c.entries[id]; ok {
		c.mu.Unlock()
		<-e.done
		return e.val, true
	}
	e := &replayEntry{done: make(chan struct{}), at: c.clock()}
	c.entries[id] = e
	c.order = append(c.order, id)
	c.pruneLocked()
	c.mu.Unlock()

	e.val = fn()
	close(e.done)
	return e.val, false
}

// Len reports the number of retained entries (tests and metrics).
func (c *ReplayCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// ReplayRecord is one serialized dedup-window entry, carried inside a
// ShardExport so at-most-once holds across a handoff: an operation executed
// on the old node replays its recorded result on the new one instead of
// executing twice.
type ReplayRecord struct {
	ID  string          `json:"id"`
	At  time.Time       `json:"at"`
	Val json.RawMessage `json:"val,omitempty"`
}

// Export snapshots the finished entries. Results that do not survive JSON
// (live handles, funcs) are exported with a null value: the duplicate still
// dedups, it just replays an empty result, which clients treat as success
// with no payload. In-flight entries are skipped — the shard is quiesced
// before export, so there are none on the handoff path.
func (c *ReplayCache) Export() []ReplayRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ReplayRecord, 0, len(c.order))
	for _, id := range c.order {
		e := c.entries[id]
		if !e.finished() {
			continue
		}
		rec := ReplayRecord{ID: id, At: e.at}
		if e.val != nil {
			if raw, err := json.Marshal(e.val); err == nil {
				rec.Val = raw
			}
		}
		out = append(out, rec)
	}
	return out
}

// Import seeds the window from exported records. Values are retained as
// json.RawMessage; duplicates arriving after the handoff observe them via
// ReplayedRaw. Existing entries win — an ID that already executed here is
// the fresher fact.
func (c *ReplayCache) Import(recs []ReplayRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range recs {
		if _, ok := c.entries[r.ID]; ok {
			continue
		}
		e := &replayEntry{done: make(chan struct{}), at: r.At}
		if len(r.Val) > 0 {
			e.val = json.RawMessage(append([]byte(nil), r.Val...))
		}
		close(e.done)
		c.entries[r.ID] = e
		c.order = append(c.order, r.ID)
	}
	c.pruneLocked()
}

// ReplayedRaw reports whether a replayed value came from an imported record
// rather than an in-process execution, returning the raw JSON if so.
// Transports use it to re-encode the recorded result for the wire.
func ReplayedRaw(v any) (json.RawMessage, bool) {
	raw, ok := v.(json.RawMessage)
	return raw, ok
}

// pruneLocked drops completed entries that fell out of the window, then —
// if the cache is still over replayMax — the oldest completed entries. Both
// scans work from the front of the insertion order and stop at the first
// entry that must stay, so pruning is O(1) amortized per insert. An
// in-progress entry is never pruned; it blocks pruning anything behind it
// for as long as its operation runs, which is transient.
func (c *ReplayCache) pruneLocked() {
	cutoff := c.clock().Add(-replayWindow)
	for len(c.order) > 0 {
		e := c.entries[c.order[0]]
		if !e.finished() || !e.at.Before(cutoff) {
			break
		}
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	for len(c.order) > replayMax {
		e := c.entries[c.order[0]]
		if !e.finished() {
			break
		}
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}
