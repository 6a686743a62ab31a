package nodeproto

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"tinman/internal/fleet"
	"tinman/internal/node"
	"tinman/internal/tlssim"
)

// ThroughputOptions configures one RunThroughput drive against a node.
type ThroughputOptions struct {
	// Workers is the number of concurrent device loops (default 8). They
	// all pipeline onto one connection.
	Workers int
	// Requests is the total number of requests to issue (both ops
	// counted). Zero means run for Duration instead.
	Requests int
	// Duration bounds the run when Requests is 0 (default 2s).
	Duration time.Duration
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// ResealEvery issues one reseal per this many requests, the rest being
	// catalog fetches (default 2: alternating catalog/reseal, the shape of
	// a login flow's node traffic). 0 disables reseals.
	ResealEvery int
}

// ThroughputResult is one RunThroughput measurement. Requests counts
// successful requests; Errors counts failed ones (each attempt counts
// exactly once in one of the two).
type ThroughputResult struct {
	Requests  int
	Errors    int
	Elapsed   time.Duration
	ReqPerSec float64
	P50       time.Duration
	P99       time.Duration
	// FirstErr samples the first failure for diagnosis; the run itself
	// continues past errors and reports them in the rate.
	FirstErr error
}

// ErrorRate returns failed requests as a fraction of all attempts.
func (r ThroughputResult) ErrorRate() float64 {
	total := r.Requests + r.Errors
	if total == 0 {
		return 0
	}
	return float64(r.Errors) / float64(total)
}

func (r ThroughputResult) String() string {
	s := fmt.Sprintf("%d requests in %v: %.0f req/s, p50 %v, p99 %v, errors %d (%.2f%%)",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.ReqPerSec,
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Errors, 100*r.ErrorRate())
	if r.FirstErr != nil {
		s += fmt.Sprintf(" (first: %v)", r.FirstErr)
	}
	return s
}

// benchCor is the cor the load loop reseals.
const benchCor = "bench-pw"

// PrepareThroughputServer registers the cor and session state the load
// loop needs on srv, returning the marshaled device session state to pass
// in ThroughputOptions — callers running against an in-process server use
// this once before RunThroughput.
func PrepareThroughputServer(srv *Server) (json.RawMessage, error) {
	if srv.Svc.Cors.Get(benchCor) == nil {
		if _, err := srv.Svc.Cors.Register(benchCor, "hunter2-benchmark!", "throughput cor", "bench.example"); err != nil {
			return nil, err
		}
		srv.Svc.Policy.SetWhitelist(benchCor, []string{"bench.example"})
	}
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	device, _, _, err := tlssim.Handshake(
		tlssim.ClientConfig{MinVersion: tlssim.TLS11},
		tlssim.ServerConfig{Key: key})
	if err != nil {
		return nil, err
	}
	return json.Marshal(device.Export())
}

// RunThroughput drives addr with opts.Workers concurrent catalog+reseal
// loops over one pipelined connection and reports req/s plus latency
// percentiles. state is the marshaled device session state from
// PrepareThroughputServer.
func RunThroughput(addr string, state json.RawMessage, opts ThroughputOptions) (ThroughputResult, error) {
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.Duration <= 0 {
		opts.Duration = 2 * time.Second
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.ResealEvery < 0 {
		opts.ResealEvery = 0
	} else if opts.ResealEvery == 0 {
		opts.ResealEvery = 2
	}

	nc, err := dialer(addr, opts.DialTimeout)()
	if err != nil {
		return ThroughputResult{}, err
	}
	c := newConn(nc)
	defer c.close()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		errCount int
		lats     = make([][]time.Duration, opts.Workers)
		deadline = time.Now().Add(opts.Duration)
		// quota hands out request slots when a fixed count is requested.
		quota = make(chan struct{}, opts.Requests)
	)
	for i := 0; i < opts.Requests; i++ {
		quota <- struct{}{}
	}
	close(quota)

	start := time.Now()
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := fmt.Sprintf("bench-dev-%d", w)
			mine := make([]time.Duration, 0, 1024)
			for n := 0; ; n++ {
				if opts.Requests > 0 {
					if _, ok := <-quota; !ok {
						break
					}
				} else if time.Now().After(deadline) {
					break
				}
				t0 := time.Now()
				req := &Request{Op: OpCatalog}
				if opts.ResealEvery > 0 && n%opts.ResealEvery == 0 {
					req = &Request{Op: OpReseal, CorID: benchCor, State: state,
						AppHash: "bench-app", DeviceID: dev, Domain: "bench.example"}
				}
				_, err := c.do(context.Background(), req)
				if err != nil {
					// Count the failure and keep driving: a load generator
					// that dies on the first error (and silently discards
					// every latency its worker had collected) hides exactly
					// the degraded behavior it exists to measure.
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errCount++
					mu.Unlock()
					continue
				}
				mine = append(mine, time.Since(t0))
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := ThroughputResult{
		Requests: len(all),
		Errors:   errCount,
		Elapsed:  elapsed,
		FirstErr: firstErr,
	}
	if elapsed > 0 {
		res.ReqPerSec = float64(len(all)) / elapsed.Seconds()
	}
	if len(all) > 0 {
		res.P50 = all[len(all)/2]
		res.P99 = all[len(all)*99/100]
	}
	return res, nil
}

// StartThroughputServer boots a quiet in-process node on a loopback
// listener, primed for the throughput workload. It returns the address,
// the marshaled device session state, and a shutdown func.
func StartThroughputServer() (addr string, state json.RawMessage, shutdown func(), err error) {
	srv, addr, state, shutdown, err := NewThroughputServer()
	_ = srv
	return addr, state, shutdown, err
}

// NewThroughputServer is StartThroughputServer exposing the *Server as
// well, so callers can install observability (SetObs) and dump its metrics
// after the drive — tinman-bench's -metrics path.
func NewThroughputServer() (srv *Server, addr string, state json.RawMessage, shutdown func(), err error) {
	srv = NewServer()
	state, err = PrepareThroughputServer(srv)
	if err != nil {
		return nil, "", nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, nil, err
	}
	go srv.Serve(l)
	return srv, l.Addr().String(), state, func() { srv.Close() }, nil
}

// --- fleet throughput ---

// StartFleetThroughput boots an n-member fleet, one wire server per member
// (each gated by the shared fleet placement), primed with the throughput
// cor replicated fleet-wide. It returns the fleet (for drain/rebalance
// drives), the member address map for DialFleet, the marshaled device
// session state, and a shutdown func.
func StartFleetThroughput(n int) (f *fleet.Fleet, members map[string]string, state json.RawMessage, shutdown func(), err error) {
	if n <= 0 {
		n = 3
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%d", i+1)
	}
	f, err = fleet.New(fleet.Config{MemberIDs: ids, NodeOptions: node.Options{}})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err = f.RegisterCor(context.Background(), benchCor, "hunter2-benchmark!", "throughput cor", "bench.example"); err != nil {
		return nil, nil, nil, nil, err
	}
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	device, _, _, err := tlssim.Handshake(
		tlssim.ClientConfig{MinVersion: tlssim.TLS11},
		tlssim.ServerConfig{Key: key})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	state, err = json.Marshal(device.Export())
	if err != nil {
		return nil, nil, nil, nil, err
	}

	members = make(map[string]string, n)
	var servers []*Server
	closeAll := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for _, id := range ids {
		svc, serr := f.MemberService(id)
		if serr != nil {
			closeAll()
			return nil, nil, nil, nil, serr
		}
		srv := NewServerWith(svc)
		srv.SetPlacement(id, f)
		srv.SetControlPlane(f)
		l, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			closeAll()
			return nil, nil, nil, nil, lerr
		}
		go srv.Serve(l)
		servers = append(servers, srv)
		members[id] = l.Addr().String()
	}
	return f, members, state, closeAll, nil
}

// FleetThroughputResult is one RunFleetThroughput measurement: the fleet-
// wide aggregate plus a per-member breakdown attributed to whichever node
// actually served each request.
type FleetThroughputResult struct {
	Total   ThroughputResult
	PerNode map[string]ThroughputResult
	// Warm, when attached (FleetWarmStats), adds each member's speculative
	// warm-up counters to the per-node columns: warm-path hits/misses and
	// the mean migration-arrival-to-first-instruction resume latency.
	Warm map[string]node.WarmStats
}

func (r FleetThroughputResult) String() string {
	s := "total: " + r.Total.String()
	ids := make([]string, 0, len(r.PerNode))
	for id := range r.PerNode {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		nr := r.PerNode[id]
		s += fmt.Sprintf("\n%-10s %7d req, p50 %v, p99 %v, errors %d",
			id, nr.Requests, nr.P50.Round(time.Microsecond), nr.P99.Round(time.Microsecond), nr.Errors)
		if ws, ok := r.Warm[id]; ok {
			s += ", " + formatWarm(ws)
		}
	}
	return s
}

// formatWarm renders one member's warm-up counters for the loadgen tables.
func formatWarm(ws node.WarmStats) string {
	rate := 0.0
	if total := ws.Hits + ws.Misses; total > 0 {
		rate = 100 * float64(ws.Hits) / float64(total)
	}
	return fmt.Sprintf("warm %d/%d (%.0f%% hit), resume %v",
		ws.Hits, ws.Misses, rate, time.Duration(ws.AvgResumeNs).Round(time.Microsecond))
}

// FleetWarmStats snapshots every member's warm-up counters for attachment
// to a FleetThroughputResult.
func FleetWarmStats(f *fleet.Fleet) map[string]node.WarmStats {
	out := make(map[string]node.WarmStats, len(f.Members()))
	for _, id := range f.Members() {
		if svc, err := f.MemberService(id); err == nil {
			out[id] = svc.WarmStats()
		}
	}
	return out
}

// RunFleetThroughput drives the fleet's device-keyed reseal path: each
// worker is one device, routed by the fleet client to its owning member
// (following redirects), with every latency sample attributed to the
// member that served it. state comes from StartFleetThroughput.
func RunFleetThroughput(members map[string]string, state json.RawMessage, opts ThroughputOptions) (FleetThroughputResult, error) {
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.Duration <= 0 {
		opts.Duration = 2 * time.Second
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	fc := DialFleet(members, opts.DialTimeout, ReconnectConfig{RequestTimeout: opts.DialTimeout})
	defer fc.Close()

	type sample struct {
		member string
		lat    time.Duration
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		errCount int
		samples  = make([][]sample, opts.Workers)
		deadline = time.Now().Add(opts.Duration)
		quota    = make(chan struct{}, opts.Requests)
	)
	for i := 0; i < opts.Requests; i++ {
		quota <- struct{}{}
	}
	close(quota)

	ctx := context.Background()
	start := time.Now()
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := fmt.Sprintf("bench-dev-%d", w)
			mine := make([]sample, 0, 1024)
			for {
				if opts.Requests > 0 {
					if _, ok := <-quota; !ok {
						break
					}
				} else if time.Now().After(deadline) {
					break
				}
				t0 := time.Now()
				_, member, err := fc.Reseal(ctx, benchCor, state, "bench-app", dev, "bench.example", "", 0)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errCount++
					mu.Unlock()
					continue
				}
				mine = append(mine, sample{member: member, lat: time.Since(t0)})
			}
			samples[w] = mine
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	perNode := map[string][]time.Duration{}
	var all []time.Duration
	for _, s := range samples {
		for _, smp := range s {
			perNode[smp.member] = append(perNode[smp.member], smp.lat)
			all = append(all, smp.lat)
		}
	}
	summarize := func(lats []time.Duration) ThroughputResult {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		r := ThroughputResult{Requests: len(lats), Elapsed: elapsed}
		if elapsed > 0 {
			r.ReqPerSec = float64(len(lats)) / elapsed.Seconds()
		}
		if len(lats) > 0 {
			r.P50 = lats[len(lats)/2]
			r.P99 = lats[len(lats)*99/100]
		}
		return r
	}
	res := FleetThroughputResult{PerNode: make(map[string]ThroughputResult, len(perNode))}
	for id, lats := range perNode {
		res.PerNode[id] = summarize(lats)
	}
	res.Total = summarize(all)
	res.Total.Errors = errCount
	res.Total.FirstErr = firstErr
	return res, nil
}
