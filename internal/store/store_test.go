package store

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/fault"
)

// testSealer is derived once per process: the deliberate KDF cost would
// otherwise dominate every test that opens a store.
var testSealer = func() *cor.Sealer {
	s, err := cor.NewSealer("test-passphrase", bytes.Repeat([]byte{0x5a}, cor.SaltLen))
	if err != nil {
		panic(err)
	}
	return s
}()

func testOpts(fs fault.FS) Options {
	return Options{Dir: "store", FS: fs, Sealer: testSealer}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// entry mints the i-th deterministic audit entry (Seq = i).
func entry(i int) audit.Entry {
	out := audit.OutcomeAllowed
	if i%3 == 0 {
		out = audit.OutcomeDenied
	}
	return audit.Entry{
		Seq: uint64(i), Time: time.Unix(0, int64(i)*1e6),
		AppHash: "hash-abcdef", CorID: "cor-main", DeviceID: "dev-1",
		Domain: "example.com", Outcome: out, Detail: "detail",
		DeviceSeq: uint64(i), PolicyVersion: uint64(i * 2), PolicyHash: "abc123def456",
	}
}

func wait(t *testing.T, tk Ticket) {
	t.Helper()
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("ticket: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	buf := appendFrame(nil, recAudit, 7, []byte("hello"))
	buf = appendFrame(buf, recPolicy, 8, nil)
	typ, lsn, payload, next, err := readFrame(buf, 0)
	if err != nil || typ != recAudit || lsn != 7 || string(payload) != "hello" {
		t.Fatalf("frame 1 = %d %d %q %v", typ, lsn, payload, err)
	}
	typ, lsn, payload, next2, err := readFrame(buf, next)
	if err != nil || typ != recPolicy || lsn != 8 || len(payload) != 0 {
		t.Fatalf("frame 2 = %d %d %q %v", typ, lsn, payload, err)
	}
	if next2 != len(buf) {
		t.Fatalf("next2 = %d, want %d", next2, len(buf))
	}
	// Every one-byte truncation and every flipped byte must read as torn.
	for cut := 0; cut < len(buf); cut++ {
		if cut >= next {
			break
		}
		if _, _, _, _, err := readFrame(buf[:cut], 0); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	for i := 0; i < next; i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		if typ, lsn, p, _, err := readFrame(mut, 0); err == nil &&
			(typ != recAudit || lsn != 7 || string(p) != "hello") {
			t.Fatalf("flip at %d decoded wrong frame silently", i)
		}
	}
}

func TestAuditCodecRoundTrip(t *testing.T) {
	for i := 1; i < 20; i++ {
		e := entry(i)
		got, err := decodeAudit(encodeAudit(nil, e))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("round trip: got %+v want %+v", got, e)
		}
	}
	// Every truncation fails loudly. The frame CRC, not this codec, is the
	// real torn-write detector.
	full := encodeAudit(nil, entry(5))
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeAudit(full[:cut]); err == nil {
			t.Fatalf("truncated payload at %d decoded", cut)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	fs := fault.NewCrashFS(1)
	s := mustOpen(t, testOpts(fs))
	for i := 1; i <= 10; i++ {
		wait(t, s.AppendAudit(entry(i)))
	}
	wait(t, s.AppendVault(VaultRecord{ID: "cor-a", Plaintext: "secret-a", Bit: 1, Description: "first"}))
	wait(t, s.AppendVault(VaultRecord{ID: "cor-b", Plaintext: "secret-b", Bit: 2}))
	wait(t, s.AppendVault(VaultRecord{ID: "cor-a", Plaintext: "secret-a2", Bit: 1})) // upsert
	wait(t, s.AppendPolicy(PolicyRecord{Version: 1, Snapshot: []byte(`{"bindings":{"cor-a":["h1"]}}`)}))
	latest := PolicyRecord{Version: 2, Snapshot: []byte(`{"bindings":{"cor-a":["h1"]},"revoked":["dev-1"]}`)}
	wait(t, s.AppendPolicy(latest)) // replaces the first document
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpen(t, testOpts(fs))
	defer r.Close()
	st := r.State()
	if len(st.Audit) != 10 {
		t.Fatalf("recovered %d audit entries, want 10", len(st.Audit))
	}
	for i, e := range st.Audit {
		if !reflect.DeepEqual(e, entry(i+1)) {
			t.Fatalf("entry %d mismatch: %+v", i, e)
		}
	}
	if len(st.Vault) != 2 || st.Vault[0].Plaintext != "secret-a2" || st.Vault[1].ID != "cor-b" {
		t.Fatalf("vault state %+v", st.Vault)
	}
	if !reflect.DeepEqual(st.Policy, latest) {
		t.Fatalf("policy state %+v, want %+v", st.Policy, latest)
	}
}

func TestStoreNoPlaintextOnDisk(t *testing.T) {
	fs := fault.NewCrashFS(2)
	s := mustOpen(t, Options{Dir: "store", FS: fs, Sealer: testSealer, SnapshotEvery: 3})
	secrets := []string{"hunter2-super-secret", "derived-sha-secret"}
	wait(t, s.AppendVault(VaultRecord{ID: "cor-a", Plaintext: secrets[0], Bit: 1}))
	wait(t, s.AppendVault(VaultRecord{ID: "cor-b", Plaintext: secrets[1], Bit: 2}))
	for i := 1; i <= 6; i++ {
		wait(t, s.AppendAudit(entry(i)))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if hits := fault.ScanForPlaintext(fs.DiskBytes(), secrets); len(hits) != 0 {
		t.Fatalf("cor plaintext on disk: %v", hits)
	}
	// Sanity-check the scanner catches unsealed leaks.
	disk := fs.DiskBytes()
	disk["leak"] = []byte("xx" + secrets[0] + "yy")
	if hits := fault.ScanForPlaintext(disk, secrets); len(hits) != 1 {
		t.Fatalf("scanner missed a planted leak: %v", hits)
	}
}

func TestStoreSnapshotCompaction(t *testing.T) {
	fs := fault.NewCrashFS(3)
	opts := testOpts(fs)
	opts.SegmentBytes = 256
	opts.SnapshotEvery = 10
	s := mustOpen(t, opts)
	for i := 1; i <= 35; i++ {
		wait(t, s.AppendAudit(entry(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Compaction must have dropped covered segments and old snapshots.
	names, err := fs.ReadDirNames("store")
	if err != nil {
		t.Fatal(err)
	}
	var segs, snaps int
	for _, n := range names {
		if _, ok := parseLSNName(n, "wal-", ".log"); ok {
			segs++
		}
		if _, ok := parseLSNName(n, "snap-", ".db"); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("want exactly 1 snapshot after compaction, have %d (%v)", snaps, names)
	}
	if segs > 2 {
		t.Fatalf("compaction left %d segments (%v)", segs, names)
	}
	r := mustOpen(t, opts)
	defer r.Close()
	st := r.State()
	if len(st.Audit) != 35 {
		t.Fatalf("recovered %d entries, want 35", len(st.Audit))
	}
	for i, e := range st.Audit {
		if !reflect.DeepEqual(e, entry(i+1)) {
			t.Fatalf("entry %d mismatch after compaction: %+v", i, e)
		}
	}
}

func TestStoreReadOnly(t *testing.T) {
	fs := fault.NewCrashFS(4)
	s := mustOpen(t, Options{Dir: "store", FS: fs, Passphrase: "pp", SnapshotEvery: 4})
	wait(t, s.AppendVault(VaultRecord{ID: "cor-a", Plaintext: "sealed-secret", Bit: 1}))
	for i := 1; i <= 5; i++ {
		wait(t, s.AppendAudit(entry(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Without a passphrase: audit visible, vault sealed.
	ro := mustOpen(t, Options{Dir: "store", FS: fs, ReadOnly: true})
	if st := ro.State(); len(st.Audit) != 5 || len(st.Vault) != 0 || st.SealedVault != 1 {
		t.Fatalf("read-only state: %d audit, %d vault, %d sealed", len(st.Audit), len(st.Vault), st.SealedVault)
	}
	if err := ro.AppendAudit(entry(9)).Wait(context.Background()); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append on read-only store: %v", err)
	}
	ro.Close()

	// With the passphrase: vault decrypts.
	ro2 := mustOpen(t, Options{Dir: "store", FS: fs, ReadOnly: true, Passphrase: "pp"})
	if st := ro2.State(); len(st.Vault) != 1 || st.Vault[0].Plaintext != "sealed-secret" {
		t.Fatalf("read-only vault state: %+v", st.Vault)
	}
	ro2.Close()

	// Wrong passphrase: hard failure wrapping cor.ErrVaultCorrupt.
	if _, err := Open(Options{Dir: "store", FS: fs, ReadOnly: true, Passphrase: "wrong"}); !errors.Is(err, cor.ErrVaultCorrupt) {
		t.Fatalf("wrong passphrase: %v", err)
	}
}

func TestStoreGroupCommitBatches(t *testing.T) {
	fs := fault.NewCrashFS(5)
	opts := testOpts(fs)
	opts.CommitInterval = 2 * time.Millisecond
	s := mustOpen(t, opts)
	const n = 64
	tickets := make([]Ticket, n)
	for i := 0; i < n; i++ {
		tickets[i] = s.AppendAudit(entry(i + 1))
	}
	for _, tk := range tickets {
		wait(t, tk)
	}
	stats := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if stats.Records != n {
		t.Fatalf("records = %d, want %d", stats.Records, n)
	}
	if stats.Batches >= n/2 {
		t.Fatalf("group commit did not batch: %d batches for %d records", stats.Batches, n)
	}
	if stats.Syncs >= n {
		t.Fatalf("group commit did not amortize fsync: %d syncs for %d records", stats.Syncs, n)
	}
	r := mustOpen(t, testOpts(fs))
	defer r.Close()
	if got := len(r.State().Audit); got != n {
		t.Fatalf("recovered %d entries, want %d", got, n)
	}
}

func TestStoreSealedRequiresPassphrase(t *testing.T) {
	if _, err := Open(Options{Dir: "x", FS: fault.NewCrashFS(6)}); err == nil {
		t.Fatal("writable open without passphrase or sealer must fail")
	}
}
