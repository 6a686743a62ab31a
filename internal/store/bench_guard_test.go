package store

import (
	"context"
	"sync"
	"testing"
	"time"

	"tinman/internal/fault"
)

// TestWALAppendAllocGuard pins the allocation cost of the append hot path
// (encode + frame + queue + ticket). The budget is deliberately loose —
// it exists to catch an accidental O(entry-size) or per-field regression,
// not to chase zero.
func TestWALAppendAllocGuard(t *testing.T) {
	fs := fault.NewCrashFS(1)
	s := mustOpen(t, testOpts(fs))
	defer s.Close()
	ctx := context.Background()
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		i++
		if err := s.Append(Audit(entry(i%30 + 1))).Wait(ctx); err != nil {
			t.Fatal(err)
		}
	})
	// Currently ~6 allocs/op (payload slice, pending, ticket channel,
	// queue growth, commit bookkeeping).
	const budget = 12
	if avg > budget {
		t.Fatalf("WAL append allocates %.1f allocs/op, budget %d", avg, budget)
	}
}

// TestWALFsyncsPerOpGuard pins group commit's fsync amortization: under
// concurrent appenders the engine must need well under one fsync per
// record. (One appender waiting on every ticket degenerates to 1 fsync
// per record by design — that case is the durability floor, not a
// regression.)
func TestWALFsyncsPerOpGuard(t *testing.T) {
	fs := fault.NewCrashFS(2)
	opts := testOpts(fs)
	opts.CommitInterval = time.Millisecond
	s := mustOpen(t, opts)
	defer s.Close()

	const (
		workers = 8
		perW    = 64
	)
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := s.Append(Audit(entry(w*perW + i + 1))).Wait(ctx); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Records != workers*perW {
		t.Fatalf("records = %d", st.Records)
	}
	perOp := float64(st.Syncs) / float64(st.Records)
	if perOp > 0.5 {
		t.Fatalf("fsyncs/op = %.2f (%d syncs / %d records), budget 0.50", perOp, st.Syncs, st.Records)
	}
}

// BenchmarkWALAppend measures the single-appender append+fsync path
// against the in-memory crash FS (isolating engine overhead from disk
// hardware).
func BenchmarkWALAppend(b *testing.B) {
	fs := fault.NewCrashFS(1)
	s, err := Open(testOpts(fs))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	e := entry(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Seq = uint64(i + 1)
		if err := s.Append(Audit(e)).Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendGrouped measures throughput with many concurrent
// appenders sharing group commits.
func BenchmarkWALAppendGrouped(b *testing.B) {
	fs := fault.NewCrashFS(1)
	opts := testOpts(fs)
	opts.CommitInterval = 100 * time.Microsecond
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		e := entry(1)
		for pb.Next() {
			if err := s.Append(Audit(e)).Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
