package store

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tinman/internal/fault"
)

// walPath is the first WAL segment of a store opened with testOpts.
var walPath = filepath.Join("store", segName(1))

// walWithGroup commits five single-entry Appends and then one Append of an
// audit entry, a vault upsert and a policy document. It returns the WAL
// segment's bytes and the offset where that last Append begins.
func walWithGroup(t testing.TB) (seg []byte, groupAt int) {
	t.Helper()
	fs := fault.NewCrashFS(1)
	s, err := Open(testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := s.Append(Audit(entry(i))).Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	head, err := fs.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Audit(entry(6)), Vault(chaosVault(1)), Policy(chaosPolicy(1))).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if seg, err = fs.ReadFile(walPath); err != nil {
		t.Fatal(err)
	}
	return seg, len(head)
}

// diskWithSegment returns a crash FS whose store directory holds seg as
// its only WAL segment.
func diskWithSegment(t testing.TB, seg []byte) *fault.CrashFS {
	t.Helper()
	fs := fault.NewCrashFS(1)
	if err := fs.MkdirAll("store", 0o700); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile(walPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(seg); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("store"); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestTornAppendRecoversNoneOfIt cuts the WAL at every byte inside a
// three-record Append, frame boundaries included: recovery must drop the
// whole Append, truncate the segment where it began, and keep the store
// writable.
func TestTornAppendRecoversNoneOfIt(t *testing.T) {
	seg, groupAt := walWithGroup(t)
	for cut := groupAt; cut < len(seg); cut++ {
		fs := diskWithSegment(t, seg[:cut])
		s, err := Open(testOpts(fs))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		st := s.State()
		if len(st.Audit) != 5 || len(st.Vault) != 0 || st.Policy.Version != 0 {
			t.Fatalf("cut=%d: recovered %d audit entries, %d vault records, policy v%d; want 5, 0, v0",
				cut, len(st.Audit), len(st.Vault), st.Policy.Version)
		}
		if got, _ := fs.ReadFile(walPath); len(got) != groupAt {
			t.Fatalf("cut=%d: segment truncated to %d bytes, want %d", cut, len(got), groupAt)
		}
		wait(t, s.Append(Audit(entry(6))))
		s.Close()
		r := mustOpen(t, testOpts(fs))
		if n := len(r.State().Audit); n != 6 {
			t.Fatalf("cut=%d: %d entries after a post-repair Append, want 6", cut, n)
		}
		r.Close()
	}
	r := mustOpen(t, testOpts(diskWithSegment(t, seg)))
	defer r.Close()
	if st := r.State(); len(st.Audit) != 6 || len(st.Vault) != 1 || st.Policy.Version != 1 {
		t.Fatalf("whole log: %d audit entries, %d vault records, policy v%d; want 6, 1, v1",
			len(st.Audit), len(st.Vault), st.Policy.Version)
	}
}

// FuzzOpenWAL opens a store whose final WAL segment is arbitrary bytes.
// Open must fail or succeed, never panic, and after a successful Open
// (which repairs a torn tail) a second Open must recover the same State.
//
//	go test -run NONE -fuzz FuzzOpenWAL -fuzztime 2m ./internal/store/
func FuzzOpenWAL(f *testing.F) {
	seg, _ := walWithGroup(f)
	// The whole log, the log cut at every frame boundary, and the last
	// Append torn inside its final frame.
	for off := 0; off < len(seg); {
		_, next, err := readFrame(seg, off)
		if err != nil {
			f.Fatalf("seed log unreadable at %d: %v", off, err)
		}
		f.Add(seg[:next])
		off = next
	}
	f.Add(seg[:len(seg)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := diskWithSegment(t, data)
		s, err := Open(testOpts(fs))
		if err != nil {
			return
		}
		want := s.State()
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		r, err := Open(testOpts(fs))
		if err != nil {
			t.Fatalf("second Open after a successful one: %v", err)
		}
		defer r.Close()
		if got := r.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("second Open recovered %d audit, %d vault, policy v%d; first had %d, %d, v%d",
				len(got.Audit), len(got.Vault), got.Policy.Version,
				len(want.Audit), len(want.Vault), want.Policy.Version)
		}
	})
}
