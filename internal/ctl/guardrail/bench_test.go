package guardrail

import (
	"fmt"
	"testing"

	"tinman/internal/audit"
	"tinman/internal/obs"
)

// BenchmarkSweep measures one full guardrail pass over a worst-case-busy
// node: a full flight recorder (default cap 16384 spans, rendered through
// both exporters), a populated metrics registry, and 2000 audit entries,
// with 8 secrets fingerprinted (5 spellings each). This is the cost the
// background sweeper pays per interval.
func BenchmarkSweep(b *testing.B) {
	tr := obs.New(obs.Options{})
	met := obs.NewMetrics()
	log := audit.NewLog(nil)
	for i := 0; i < 16384; i++ {
		sp := tr.StartSpan(obs.PhasePolicyCheck, obs.Cor("pw"), obs.Device(fmt.Sprintf("dev-%d", i%64)), obs.Outcome(true))
		sp.End()
	}
	met.Counter("reseals_total").Add(12345)
	met.Counter("denials_total").Add(17)
	for i := 0; i < 2000; i++ {
		log.AppendEntry(audit.Entry{AppHash: "app", CorID: "pw", DeviceID: fmt.Sprintf("dev-%d", i%64), Domain: "bank.com", Outcome: audit.OutcomeAllowed, Detail: "record resealed"})
	}
	sc := New()
	for i := 0; i < 8; i++ {
		sc.AddSecret(fmt.Sprintf("cor-%d", i), []byte(fmt.Sprintf("secret-value-%d-abcdef", i)))
	}
	sw := &Sweeper{Scanner: sc, Tracer: tr, Metrics: met, Audit: log}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings, err := sw.SweepOnce()
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatal("unexpected findings")
		}
	}
}
