// Speculative warm-up (the pre-migration pipeline): the device ships its
// initial heap snapshot in background chunks while execution continues, so
// the trigger-time migration carries only the delta of objects mutated (or
// created) since each chunk was captured.
//
// Protocol sketch:
//
//   - The device mints a fresh warm-up *epoch* per attempt (BeginWarmup) and
//     snapshots the heap's object list. CaptureWarmup then emits ordered
//     WarmupChunks (index 0..n, last one flagged Final), recording the
//     Version each object was shipped at.
//   - The node buffers chunks per epoch and only materializes them into its
//     heap when the Final chunk arrives — a torn warm-up (crash, reconnect,
//     handoff) leaves the node heap untouched. Index or epoch mismatch drops
//     the whole buffered epoch.
//   - At the taint trigger, CaptureMigration stamps the migration with the
//     completed epoch (Migration.WarmEpoch) and ships only objects whose
//     Version differs from the shipped record. The node admits the delta
//     only if ConsumeWarmup matches a ready epoch; otherwise the sender
//     falls back to the cold full-snapshot path.
//
// Correctness never depends on the speculation: every failure mode ends in
// "drop warm state, run the cold path".
package dsm

import (
	"fmt"

	"tinman/internal/vm"
)

// WarmupChunk is one ordered slice of the background initial snapshot.
type WarmupChunk struct {
	// Epoch identifies the warm-up attempt; chunks from different epochs
	// never mix. Zero is invalid (it is the cold-path sentinel).
	Epoch uint64
	// Index orders chunks within the epoch, starting at 0.
	Index int
	// Final marks the last chunk of the snapshot.
	Final bool
	// Objects uses the same serialized form as Migration — tainted content
	// still never travels by value, only cor IDs.
	Objects []ObjectState
}

// Encode serializes the chunk to its wire form (pooled working buffer,
// exact-size result, like Migration.Encode).
func (c *WarmupChunk) Encode() []byte {
	e := encPool.Get().(*encoder)
	e.buf = e.buf[:0]
	c.encodeInto(e)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	encPool.Put(e)
	return out
}

// EncodedSize returns len(c.Encode()) without allocating the result.
func (c *WarmupChunk) EncodedSize() int {
	e := encPool.Get().(*encoder)
	e.buf = e.buf[:0]
	c.encodeInto(e)
	n := len(e.buf)
	encPool.Put(e)
	return n
}

func (c *WarmupChunk) encodeInto(e *encoder) {
	e.u8(wireVersion)
	e.u64(c.Epoch)
	e.u64(uint64(c.Index))
	e.b(c.Final)
	e.u64(uint64(len(c.Objects)))
	for i := range c.Objects {
		e.object(&c.Objects[i])
	}
}

// DecodeWarmupChunk parses a wire-form warm-up chunk with the same guards as
// DecodeMigration: truncation, implausible counts, trailing bytes.
func DecodeWarmupChunk(buf []byte) (*WarmupChunk, error) {
	d := &decoder{buf: buf}
	if v := d.u8(); v != wireVersion && d.err == nil {
		return nil, fmt.Errorf("dsm: warmup chunk wire version %d, want %d", v, wireVersion)
	}
	c := &WarmupChunk{}
	c.Epoch = d.u64()
	c.Index = int(d.u64())
	c.Final = d.b()
	no := d.u64()
	if d.err == nil && no > uint64(len(buf)) {
		d.fail("warmup object count %d implausible", no)
	}
	if d.err == nil {
		c.Objects = make([]ObjectState, no)
		for i := range c.Objects {
			d.object(&c.Objects[i])
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(buf) {
		return nil, fmt.Errorf("dsm: decode: %d trailing bytes after warmup chunk", len(buf)-d.off)
	}
	if c.Epoch == 0 {
		return nil, fmt.Errorf("dsm: warmup chunk with zero epoch")
	}
	return c, nil
}

// warmupSend is the sender-side (device) state of one warm-up attempt.
type warmupSend struct {
	epoch   uint64
	pending []*vm.Object
	next    int // next chunk index to emit
	// shipped records the Version each object had when its chunk was
	// captured: the trigger-time delta is every object whose Version moved
	// (the heap never deletes, so version compare is complete).
	shipped map[uint64]uint64
	sent    bool // all chunks emitted
	acked   bool // final chunk acknowledged by the node
}

// warmupRecv is the receiver-side (node) state of one warm-up epoch. The
// decoded chunks are kept as they arrived and only adopted, as batches,
// when Final arrives, so objects may freely reference objects in later
// chunks and a torn warm-up leaves the heap untouched.
type warmupRecv struct {
	epoch   uint64
	next    int // expected next chunk index
	batches [][]ObjectState
	ready   bool
}

// BeginWarmup starts a speculative warm-up attempt on the sending side,
// snapshotting the current object list, and returns the minted epoch. It
// replaces any previous attempt. Returns 0 if the initial sync already
// happened (nothing to warm).
func (e *Endpoint) BeginWarmup() uint64 {
	if e.initialSent {
		return 0
	}
	e.warmSeq++
	e.warm = &warmupSend{
		epoch:   e.warmSeq,
		pending: e.VM.Heap.Objects(),
		shipped: make(map[uint64]uint64),
	}
	return e.warm.epoch
}

// CaptureWarmup emits the next chunk of the active warm-up, covering at most
// maxObjs objects, or nil when every chunk has been emitted. The chunk
// captures each object's state as of this call; later mutations surface in
// the trigger-time delta via the Version record.
func (e *Endpoint) CaptureWarmup(maxObjs int) (*WarmupChunk, error) {
	w := e.warm
	if w == nil || w.sent {
		return nil, nil
	}
	if maxObjs <= 0 {
		maxObjs = 64
	}
	n := maxObjs
	if n > len(w.pending) {
		n = len(w.pending)
	}
	c := &WarmupChunk{Epoch: w.epoch, Index: w.next, Objects: make([]ObjectState, 0, n)}
	for _, o := range w.pending[:n] {
		if e.restricted(o.Tag) {
			// Server-only tainted objects never ship. Deliberately not
			// recorded in shipped either, so the trigger-time delta sees
			// them again and CaptureMigration's own filter withholds them —
			// the two filters stay consistent without coordination.
			e.Stats.Withheld++
			continue
		}
		os, err := e.encodeObject(o)
		if err != nil {
			e.AbortWarmup()
			return nil, err
		}
		c.Objects = append(c.Objects, os)
		w.shipped[o.ID] = o.Version
	}
	w.pending = w.pending[n:]
	w.next++
	if len(w.pending) == 0 {
		c.Final = true
		w.sent = true
	}
	e.Stats.WarmupChunks++
	e.Stats.WarmupBytes += c.EncodedSize()
	return c, nil
}

// WarmupAcked records the node's acknowledgement of the Final chunk: only
// then may CaptureMigration take the warm delta path.
func (e *Endpoint) WarmupAcked() {
	if e.warm != nil && e.warm.sent {
		e.warm.acked = true
	}
}

// AbortWarmup discards the sending-side warm-up attempt; the next capture
// takes the cold path (and a new attempt may be started later).
func (e *Endpoint) AbortWarmup() { e.warm = nil }

// WarmupEpoch returns the active attempt's epoch, or 0 when none.
func (e *Endpoint) WarmupEpoch() uint64 {
	if e.warm == nil {
		return 0
	}
	return e.warm.epoch
}

// WarmupReady reports whether the warm delta path is armed: every chunk
// shipped and the final one acknowledged.
func (e *Endpoint) WarmupReady() bool {
	return e.warm != nil && e.warm.acked
}

// ApplyWarmupChunk buffers an incoming chunk on the receiving side and, on
// the Final chunk, materializes the whole epoch into the heap. Any ordering
// violation (index gap, epoch mix, chunk after Final) or apply failure drops
// the buffered epoch entirely and returns an error so the sender falls back
// to the cold path.
func (e *Endpoint) ApplyWarmupChunk(c *WarmupChunk) error {
	if c.Epoch == 0 {
		return fmt.Errorf("dsm: %s: warmup chunk with zero epoch", e.Side)
	}
	if c.Index == 0 {
		// A new epoch always supersedes whatever was buffered or ready.
		e.warmRecv = &warmupRecv{epoch: c.Epoch}
	}
	r := e.warmRecv
	if r == nil || r.epoch != c.Epoch || r.ready || r.next != c.Index {
		e.warmRecv = nil
		return fmt.Errorf("dsm: %s: warmup chunk epoch %d index %d out of order", e.Side, c.Epoch, c.Index)
	}
	if !e.Restricted.Empty() {
		for i := range c.Objects {
			if err := e.screenObject(&c.Objects[i]); err != nil {
				e.warmRecv = nil
				return err
			}
		}
	}
	r.batches = append(r.batches, c.Objects)
	r.next++
	if !c.Final {
		return nil
	}
	// Final chunk: the whole epoch is adopted, or none of it.
	if err := e.adoptObjects(nil, r.batches...); err != nil {
		e.warmRecv = nil
		return err
	}
	r.batches = nil
	r.ready = true
	return nil
}

// ConsumeWarmup admits a warm-path migration: it returns true only when a
// ready warm-up with exactly the given epoch is held, and clears the warm
// state either way (a mismatch means the state is stale for this trigger).
func (e *Endpoint) ConsumeWarmup(epoch uint64) bool {
	r := e.warmRecv
	e.warmRecv = nil
	return r != nil && r.ready && r.epoch == epoch
}

// DropWarmup discards any receiving-side warm state (shard handoff, device
// teardown). Safe when none is held.
func (e *Endpoint) DropWarmup() { e.warmRecv = nil }

// WarmupPending reports whether the receiving side holds buffered or ready
// warm state (exposed for tests and shard bookkeeping).
func (e *Endpoint) WarmupPending() bool { return e.warmRecv != nil }
