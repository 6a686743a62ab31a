package nodeproto

import (
	"context"
	"testing"
	"time"
)

// BenchmarkNodeThroughput drives a live loopback-TCP node with 8 parallel
// device loops doing the catalog+reseal mix over one pipelined connection
// and reports req/s plus latency percentiles as benchmark metrics:
//
//	go test -bench NodeThroughput -benchtime 2000x ./internal/nodeproto/
func BenchmarkNodeThroughput(b *testing.B) {
	addr, state, shutdown, err := StartThroughputServer()
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown()
	b.ResetTimer()
	res, err := RunThroughput(addr, state, ThroughputOptions{Workers: 8, Requests: b.N})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.ReqPerSec, "req/s")
	b.ReportMetric(float64(res.P50.Microseconds()), "p50-µs")
	b.ReportMetric(float64(res.P99.Microseconds()), "p99-µs")
	b.ReportMetric(0, "ns/op") // wall time is the req/s metric; per-op ns is misleading with parallel workers
}

// BenchmarkResealLatency measures single-request reseal latency over
// loopback TCP (no pipelining, one worker) — the per-call cost a single
// device sees.
func BenchmarkResealLatency(b *testing.B) {
	addr, state, shutdown, err := StartThroughputServer()
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown()
	nc, err := dialer(addr, 5*time.Second)()
	if err != nil {
		b.Fatal(err)
	}
	c := newConn(nc)
	defer c.close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &Request{Op: OpReseal, CorID: benchCor, State: state,
			AppHash: "bench-app", DeviceID: "bench-dev", Domain: "bench.example"}
		if _, err := c.do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
