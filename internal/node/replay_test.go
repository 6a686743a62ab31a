package node

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestReplayCacheDedup(t *testing.T) {
	c := NewReplayCache(time.Now)
	calls := 0
	fn := func() any { calls++; return calls }

	v, replayed := c.Do("req-1", fn)
	if replayed || v.(int) != 1 {
		t.Fatalf("first Do = (%v, %v), want (1, false)", v, replayed)
	}
	v, replayed = c.Do("req-1", fn)
	if !replayed || v.(int) != 1 {
		t.Fatalf("replayed Do = (%v, %v), want (1, true)", v, replayed)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	// A different ID is a fresh execution.
	if v, replayed = c.Do("req-2", fn); replayed || v.(int) != 2 {
		t.Fatalf("fresh Do = (%v, %v), want (2, false)", v, replayed)
	}
}

// TestReplayCacheConcurrentDuplicates drives many goroutines at the same ID
// while the original is mid-execution: exactly one runs fn, the rest block
// until it finishes and all see its result.
func TestReplayCacheConcurrentDuplicates(t *testing.T) {
	c := NewReplayCache(time.Now)
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func() any {
		calls.Add(1)
		<-release
		return "done"
	}

	const workers = 16
	var wg sync.WaitGroup
	results := make([]any, workers)
	started := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			v, _ := c.Do("shared", fn)
			results[i] = v
		}(i)
	}
	for i := 0; i < workers; i++ {
		<-started
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times under concurrent duplicates, want 1", n)
	}
	for i, v := range results {
		if v != "done" {
			t.Fatalf("worker %d saw %v, want the original's result", i, v)
		}
	}
}

func TestReplayCachePrunesByWindow(t *testing.T) {
	now := time.Unix(0, 0)
	c := NewReplayCache(func() time.Time { return now })
	c.Do("old", func() any { return 1 })
	now = now.Add(replayWindow + time.Second)
	// Inserting after the window triggers pruning of the expired entry, so
	// the same ID executes fresh.
	if _, replayed := c.Do("other", func() any { return 2 }); replayed {
		t.Fatal("fresh ID reported replayed")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after window prune, want 1", c.Len())
	}
	if _, replayed := c.Do("old", func() any { return 3 }); replayed {
		t.Fatal("expired entry still replayed past the window")
	}
}

func TestReplayCachePrunesByMax(t *testing.T) {
	c := NewReplayCache(time.Now)
	const n = replayMax + 6
	for i := 0; i < n; i++ {
		c.Do(fmt.Sprintf("req-%d", i), func() any { return i })
	}
	if c.Len() != replayMax {
		t.Fatalf("Len = %d, want replayMax=%d", c.Len(), replayMax)
	}
	// Newest entries survive.
	if _, replayed := c.Do(fmt.Sprintf("req-%d", n-1), func() any { return -1 }); !replayed {
		t.Fatal("newest entry was pruned")
	}
	if _, replayed := c.Do("req-0", func() any { return -1 }); replayed {
		t.Fatal("oldest entry survived past replayMax")
	}
}

// TestReplayCacheDoesNotPruneInProgress pins the safety property: an entry
// whose operation is still running is never evicted, even under replayMax
// pressure, because evicting it would let a duplicate re-execute.
func TestReplayCacheDoesNotPruneInProgress(t *testing.T) {
	c := NewReplayCache(time.Now)
	release := make(chan struct{})
	ran := make(chan struct{})
	go c.Do("slow", func() any {
		close(ran)
		<-release
		return nil
	})
	<-ran
	for i := 0; i < replayMax+5; i++ {
		c.Do(fmt.Sprintf("fast-%d", i), func() any { return i })
	}
	// The in-progress entry heads the insertion order, so over-replayMax pruning
	// stops at it; a duplicate must still dedup, not re-execute.
	done := make(chan struct{})
	var replayed bool
	go func() {
		_, replayed = c.Do("slow", func() any { return "second execution" })
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("duplicate of in-progress op returned before the original finished")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-done
	if !replayed {
		t.Fatal("in-progress entry was pruned: duplicate re-executed")
	}
}
