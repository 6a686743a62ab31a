package nodeproto

import (
	"context"
	"net"
	"testing"
	"time"
)

// BenchmarkResealLatency measures single-request reseal latency over
// loopback TCP (no pipelining, one worker) — the per-call cost a single
// device sees. Node throughput under concurrent sessions is tinbench's
// `reseal` workload.
func BenchmarkResealLatency(b *testing.B) {
	srv := NewServer()
	state, err := PrepareThroughputServer(srv)
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	nc, err := dialer(l.Addr().String(), 5*time.Second)()
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
