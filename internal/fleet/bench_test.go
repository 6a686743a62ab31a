package fleet

import (
	"context"
	"fmt"
	"testing"

	"tinman/internal/policy"
)

// BenchmarkPolicyPush measures one fleet-wide policy install: the fleet
// numbers the document, installs it on every member and updates the
// per-member applied versions. In-process members, so this is the
// propagation machinery's cost floor.
func BenchmarkPolicyPush(b *testing.B) {
	for _, n := range []int{3, 9} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("node-%d", i)
			}
			f := newTestFleet(b, ids...)
			snap := &policy.Snapshot{
				Whitelist: map[string][]string{"pw": {"bank.com"}},
				Revoked:   []string{"stolen-1"},
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.InstallPolicy(ctx, snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRevocationPush measures the fleet-wide revoke+restore pair —
// the "my phone was stolen" path, two document pushes.
func BenchmarkRevocationPush(b *testing.B) {
	f := newTestFleet(b, "node-a", "node-b", "node-c")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Revoke("stolen-dev"); err != nil {
			b.Fatal(err)
		}
		if err := f.Restore("stolen-dev"); err != nil {
			b.Fatal(err)
		}
	}
}
