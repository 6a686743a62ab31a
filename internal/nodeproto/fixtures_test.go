package nodeproto

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"fmt"
	"net"

	"tinman/internal/fleet"
	"tinman/internal/node"
	"tinman/internal/tlssim"
)

// benchCor is the cor the reseal fixtures register and reseal.
const benchCor = "bench-pw"

// benchState returns a marshaled device session state from a fresh
// TLS 1.1 handshake, the State a reseal request carries.
func benchState() (json.RawMessage, error) {
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

// PrepareThroughputServer registers benchCor, whitelisted for
// bench.example, on srv and returns a device session state to reseal it
// with.
func PrepareThroughputServer(srv *Server) (json.RawMessage, error) {
	if srv.Svc.Cors.Get(benchCor) == nil {
		if _, err := srv.Svc.RegisterCor(context.Background(), benchCor, "hunter2-benchmark!", "throughput cor", "bench.example"); err != nil {
			return nil, err
		}
	}
	return benchState()
}

// StartFleetThroughput boots an n-member fleet, one loopback server per
// member (each gated by the shared fleet placement), with benchCor
// replicated fleet-wide. It returns the fleet, the member address map for
// DialFleet, a device session state, and a shutdown func.
func StartFleetThroughput(n int) (f *fleet.Fleet, members map[string]string, state json.RawMessage, shutdown func(), err error) {
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
	if state, err = benchState(); err != nil {
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
