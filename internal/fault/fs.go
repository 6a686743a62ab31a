package fault

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// This file adds the storage half of the fault toolkit: a minimal
// filesystem interface (FS) that the crash-safe storage engine
// (internal/store) writes through, one implementation backed by the real
// OS, and one deterministic in-memory
// implementation (CrashFS) that models what a kill -9 leaves on disk —
// unsynced writes dropped, appended tails torn at an arbitrary byte, and
// renames that never happened because the directory was not fsynced.
//
// The model follows the strict POSIX crash contract (the one ALICE-style
// checkers test against): nothing written is durable until the file is
// fsynced, and no namespace change (create, rename, remove) is durable
// until the parent directory is fsynced. Real filesystems are often
// kinder; code that survives this model survives them all.

// ErrCrashed marks every operation attempted after the simulated process
// death and before Restart.
var ErrCrashed = errors.New("fault: filesystem crashed")

// File is the writable-file surface the storage engine needs. Reads go
// through FS.ReadFile — recovery slurps whole files, it never seeks.
type File interface {
	io.Writer
	io.Closer
	// Sync makes the file's current content durable.
	Sync() error
	// Truncate cuts the file to size (tail repair during recovery).
	Truncate(size int64) error
}

// FS is the filesystem surface shared by the OS and the crash simulator.
type FS interface {
	// OpenFile opens name with os-style flags (O_WRONLY|O_CREATE|O_APPEND…).
	OpenFile(name string, flag int, perm iofs.FileMode) (File, error)
	// ReadFile returns name's full content; iofs.ErrNotExist when missing.
	ReadFile(name string) ([]byte, error)
	// Rename moves oldpath to newpath (atomic replace).
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// MkdirAll creates dir and parents.
	MkdirAll(dir string, perm iofs.FileMode) error
	// ReadDirNames lists dir's entry names, sorted.
	ReadDirNames(dir string) ([]string, error)
	// SyncDir makes dir's namespace (creates, renames, removes) durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)          { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error          { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                      { return os.Remove(name) }
func (osFS) MkdirAll(dir string, perm iofs.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) ReadDirNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir fsyncs the directory fd so renames/creates/removes inside it are
// durable.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- deterministic crash simulator ---

// memFile is one simulated file: the content a reader sees now (cur) and
// the content that survives a crash (synced).
type memFile struct {
	cur    []byte
	synced []byte
	// dirty marks an in-place mutation below the synced length (overwrite
	// or truncate) since the last fsync. While clear, cur is synced plus a
	// pure appended tail, so Sync can extend synced by the delta instead of
	// copying the whole file — without this, fsyncing a growing log is
	// quadratic in its length and the simulator's cost swamps the cost of
	// the engine under test.
	dirty bool
}

// CrashFS is an in-memory FS with kill -9 semantics. Operations are
// counted; CrashAfter schedules the process death at an exact operation
// index, after which every call fails ErrCrashed. Restart then materializes
// the post-crash disk: per file, unsynced changes are dropped — except that
// a purely appended tail survives up to a torn byte count drawn from the
// seeded RNG — and per directory, namespace changes since the last SyncDir
// are rolled back. Sweeping CrashAfter over every index enumerates every
// crash boundary deterministically.
//
// Directory creation (MkdirAll) is treated as immediately durable — the
// engines under test create their directory once at setup, never near a
// crash boundary worth modeling.
type CrashFS struct {
	mu  sync.Mutex
	rng *rand.Rand

	files map[string]*memFile // live namespace
	dur   map[string]*memFile // namespace as of the last relevant SyncDir
	dirs  map[string]bool

	ops     int // mutating+reading operations performed
	crashAt int // operation index that dies; <0 = never
	crashed bool
	gen     int // bumped on Restart; stale handles fail

	syncs int // file fsyncs that completed (observability for tests)
}

// NewCrashFS builds a crash simulator; seed drives the torn-write RNG.
func NewCrashFS(seed int64) *CrashFS {
	return &CrashFS{
		rng:     rand.New(rand.NewSource(seed)),
		files:   make(map[string]*memFile),
		dur:     make(map[string]*memFile),
		dirs:    make(map[string]bool),
		crashAt: -1,
	}
}

// CrashAfter schedules the crash n counted operations from now (0 dies on
// the very next one). A negative n cancels the schedule.
func (c *CrashFS) CrashAfter(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		c.crashAt = -1
		return
	}
	c.crashAt = c.ops + n
}

// CrashNow kills the process immediately.
func (c *CrashFS) CrashNow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = true
}

// Crashed reports whether the simulated process is dead.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Ops returns the number of counted operations so far — the sweep bound for
// exhaustive crash-point enumeration.
func (c *CrashFS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Syncs returns how many file fsyncs completed (group-commit accounting).
func (c *CrashFS) Syncs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs
}

// Restart materializes the post-crash disk state and revives the
// filesystem: durable namespace only, synced content plus a torn prefix of
// any appended tail. Handles opened before the crash stay dead.
func (c *CrashFS) Restart() {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := make(map[string]*memFile, len(c.dur))
	// Deterministic iteration: torn byte counts must not depend on map order.
	names := make([]string, 0, len(c.dur))
	for name := range c.dur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := c.dur[name]
		content := append([]byte(nil), f.synced...)
		if len(f.cur) > len(f.synced) && prefixEqual(f.cur, f.synced) {
			// Pure append since the last fsync: a torn tail survives.
			keep := c.rng.Intn(len(f.cur) - len(f.synced) + 1)
			content = append(content, f.cur[len(f.synced):len(f.synced)+keep]...)
		}
		next[name] = &memFile{cur: content, synced: append([]byte(nil), content...)}
	}
	c.files = next
	c.dur = make(map[string]*memFile, len(next))
	for name, f := range next {
		c.dur[name] = f
	}
	c.crashed = false
	c.crashAt = -1
	c.gen++
}

func prefixEqual(longer, prefix []byte) bool {
	if len(longer) < len(prefix) {
		return false
	}
	return string(longer[:len(prefix)]) == string(prefix)
}

// step counts one operation and reports whether the process is still alive;
// callers hold c.mu.
func (c *CrashFS) step() error {
	if c.crashed {
		return ErrCrashed
	}
	if c.crashAt >= 0 && c.ops >= c.crashAt {
		c.crashed = true
		return ErrCrashed
	}
	c.ops++
	return nil
}

func clean(name string) string { return filepath.Clean(name) }

// OpenFile implements FS.
func (c *CrashFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return nil, err
	}
	name = clean(name)
	f := c.files[name]
	if f == nil {
		if flag&os.O_CREATE == 0 {
			return nil, &iofs.PathError{Op: "open", Path: name, Err: iofs.ErrNotExist}
		}
		f = &memFile{}
		c.files[name] = f
		// The create is a namespace change: durable only after SyncDir.
	} else if flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL {
		return nil, &iofs.PathError{Op: "open", Path: name, Err: iofs.ErrExist}
	}
	if flag&os.O_TRUNC != 0 {
		f.cur = nil
		if len(f.synced) > 0 {
			f.dirty = true
		}
	}
	pos := int64(len(f.cur))
	if flag&os.O_APPEND == 0 {
		pos = 0
	}
	return &crashFile{fs: c, f: f, pos: pos, gen: c.gen, append_: flag&os.O_APPEND != 0}, nil
}

// ReadFile implements FS.
func (c *CrashFS) ReadFile(name string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return nil, err
	}
	f := c.files[clean(name)]
	if f == nil {
		return nil, &iofs.PathError{Op: "read", Path: clean(name), Err: iofs.ErrNotExist}
	}
	return append([]byte(nil), f.cur...), nil
}

// Rename implements FS; durable only after SyncDir on the parent.
func (c *CrashFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return err
	}
	oldpath, newpath = clean(oldpath), clean(newpath)
	f := c.files[oldpath]
	if f == nil {
		return &iofs.PathError{Op: "rename", Path: oldpath, Err: iofs.ErrNotExist}
	}
	delete(c.files, oldpath)
	c.files[newpath] = f
	return nil
}

// Remove implements FS; durable only after SyncDir on the parent.
func (c *CrashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return err
	}
	name = clean(name)
	if c.files[name] == nil {
		return &iofs.PathError{Op: "remove", Path: name, Err: iofs.ErrNotExist}
	}
	delete(c.files, name)
	return nil
}

// MkdirAll implements FS (immediately durable — see the type comment).
func (c *CrashFS) MkdirAll(dir string, perm iofs.FileMode) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return err
	}
	c.dirs[clean(dir)] = true
	return nil
}

// ReadDirNames implements FS over the live namespace.
func (c *CrashFS) ReadDirNames(dir string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return nil, err
	}
	dir = clean(dir)
	var names []string
	for name := range c.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir makes dir's current namespace durable: every live entry under dir
// is recorded in the durable namespace, every durable entry no longer live
// is dropped from it.
func (c *CrashFS) SyncDir(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return err
	}
	dir = clean(dir)
	for name, f := range c.files {
		if filepath.Dir(name) == dir {
			c.dur[name] = f
		}
	}
	for name := range c.dur {
		if filepath.Dir(name) == dir && c.files[name] == nil {
			delete(c.dur, name)
		}
	}
	return nil
}

// DiskBytes returns every live file's current content keyed by path — the
// guardrail scanner's view of "what is on disk".
func (c *CrashFS) DiskBytes() map[string][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]byte, len(c.files))
	for name, f := range c.files {
		out[name] = append([]byte(nil), f.cur...)
	}
	return out
}

// crashFile is a handle into a CrashFS file.
type crashFile struct {
	fs      *CrashFS
	f       *memFile
	pos     int64
	gen     int
	append_ bool
	closed  bool
}

// check validates the handle and counts the op; callers hold fs.mu.
func (h *crashFile) check() error {
	if err := h.fs.step(); err != nil {
		return err
	}
	if h.gen != h.fs.gen {
		return ErrCrashed // handle predates a restart
	}
	if h.closed {
		return fmt.Errorf("fault: file already closed")
	}
	return nil
}

func (h *crashFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	// A write interrupted by the crash still lands a torn prefix: the
	// kernel got some of it before the process died.
	if err := h.check(); err != nil {
		if errors.Is(err, ErrCrashed) && h.gen == h.fs.gen && !h.closed {
			keep := h.fs.rng.Intn(len(p) + 1)
			h.writeLocked(p[:keep])
		}
		return 0, err
	}
	h.writeLocked(p)
	return len(p), nil
}

func (h *crashFile) writeLocked(p []byte) {
	if h.append_ {
		h.pos = int64(len(h.f.cur))
	}
	if len(p) > 0 && h.pos < int64(len(h.f.synced)) {
		h.f.dirty = true
	}
	end := h.pos + int64(len(p))
	if h.pos == int64(len(h.f.cur)) {
		// Plain append — the WAL's whole write pattern.
		h.f.cur = append(h.f.cur, p...)
		h.pos = end
		return
	}
	if int64(len(h.f.cur)) < end {
		h.f.cur = append(h.f.cur, make([]byte, end-int64(len(h.f.cur)))...)
	}
	copy(h.f.cur[h.pos:end], p)
	h.pos = end
}

func (h *crashFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	if h.f.dirty || len(h.f.cur) < len(h.f.synced) {
		h.f.synced = append([]byte(nil), h.f.cur...)
		h.f.dirty = false
	} else {
		h.f.synced = append(h.f.synced, h.f.cur[len(h.f.synced):]...)
	}
	h.fs.syncs++
	return nil
}

func (h *crashFile) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	if size < 0 || size > int64(len(h.f.cur)) {
		return fmt.Errorf("fault: truncate %d out of range", size)
	}
	if size < int64(len(h.f.synced)) {
		h.f.dirty = true
	}
	h.f.cur = h.f.cur[:size]
	if h.pos > size {
		h.pos = size
	}
	return nil
}

func (h *crashFile) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	// Close is free (no fsync semantics) but still fails on a dead process.
	if h.fs.crashed {
		return ErrCrashed
	}
	h.closed = true
	return nil
}

// ScanForPlaintext reports every file in disk whose bytes contain any of
// the given secrets — the encryption-at-rest guardrail. It is FS-agnostic:
// pass CrashFS.DiskBytes() or a map built by walking a real directory.
func ScanForPlaintext(disk map[string][]byte, secrets []string) []string {
	var hits []string
	for name, data := range disk {
		for _, sec := range secrets {
			if sec != "" && strings.Contains(string(data), sec) {
				hits = append(hits, name+": "+sec)
			}
		}
	}
	sort.Strings(hits)
	return hits
}
