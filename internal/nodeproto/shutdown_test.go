package nodeproto

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// These tests pin the shutdown/failure classification contract: a caller
// must be able to tell "this request may have executed on the node" from
// "this request provably never left", because only the former needs the
// ReqID replay machinery and only the latter is trivially safe to retry.

// readOneFrame consumes one length-prefixed message from the fake server.
func readOneFrame(t *testing.T, conn net.Conn) {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("reading frame header: %v", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatalf("reading frame body: %v", err)
	}
}

func TestShutdownAmbiguousAfterSend(t *testing.T) {
	cli, srv := net.Pipe()
	c := newConn(cli)
	defer c.close()

	done := make(chan error, 1)
	go func() {
		_, err := c.do(context.Background(), &Request{Op: OpPing})
		done <- err
	}()
	// The server reads the whole request — so it provably reached the wire
	// — then drops the connection without replying.
	readOneFrame(t, srv)
	srv.Close()

	err := <-done
	if !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("err = %v, want ErrAmbiguous", err)
	}
	if errors.Is(err, ErrNeverSent) {
		t.Fatal("a sent request was classified never-sent")
	}
	var te *TransportError
	if !errors.As(err, &te) || !te.Ambiguous || te.Cause == nil {
		t.Fatalf("err = %#v, want an ambiguous TransportError with a cause", err)
	}
}

func TestShutdownNeverSentOnDeadConnection(t *testing.T) {
	cli, srv := net.Pipe()
	c := newConn(cli)
	defer c.close()

	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.alive() {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the dead connection")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := c.do(context.Background(), &Request{Op: OpPing})
	if !errors.Is(err, ErrNeverSent) {
		t.Fatalf("err = %v, want ErrNeverSent", err)
	}
	if errors.Is(err, ErrAmbiguous) {
		t.Fatal("an unsent request was classified ambiguous")
	}
}

func TestShutdownNeverSentAfterClose(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	c := newConn(cli)
	c.close()

	_, err := c.do(context.Background(), &Request{Op: OpPing})
	if !errors.Is(err, ErrNeverSent) {
		t.Fatalf("err after close = %v, want ErrNeverSent", err)
	}
}

// TestShutdownConcurrentWaiters hammers a connection with concurrent
// requests the server never answers, then kills it: every waiter must
// resolve promptly with a classified TransportError — no hangs, no
// misclassification — and the whole dance must be race-clean.
func TestShutdownConcurrentWaiters(t *testing.T) {
	cli, srv := net.Pipe()
	c := newConn(cli)
	defer c.close()
	go io.Copy(io.Discard, srv) // swallow requests, never reply

	const workers = 16
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.do(context.Background(), &Request{Op: OpPing})
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the batch reach the wire
	srv.Close()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters hung after connection loss")
	}
	for i, err := range errs {
		var te *TransportError
		if !errors.As(err, &te) {
			t.Fatalf("waiter %d: err = %v, want a TransportError", i, err)
		}
		// Each waiter is classified one way or the other, never both.
		if errors.Is(err, ErrAmbiguous) == errors.Is(err, ErrNeverSent) {
			t.Fatalf("waiter %d: ambiguous/never-sent classification inconsistent: %v", i, err)
		}
	}
}

// TestStrayResponsesDiscarded: a response whose Seq matches no in-flight
// request, Seq 0 included, is dropped. It never resolves another request,
// each pending call still gets its own response, and the connection stays
// usable.
func TestStrayResponsesDiscarded(t *testing.T) {
	cli, srv := net.Pipe()
	c := newConn(cli)
	defer c.close()
	defer srv.Close()

	type answer struct {
		seq  uint64
		resp *Response
		err  error
	}
	answers := make(chan answer, 2)
	for i := 0; i < 2; i++ {
		go func() {
			req := &Request{Op: OpPing}
			resp, err := c.do(context.Background(), req)
			answers <- answer{req.Seq, resp, err}
		}()
	}
	// The scripted peer reads both requests, then sends two strays ahead
	// of the real answers, which go out in reverse order.
	var seqs []uint64
	for i := 0; i < 2; i++ {
		var req Request
		if err := ReadMessage(srv, &req); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, req.Seq)
	}
	for _, resp := range []*Response{
		{OK: true, Seq: 0, Owner: "stray-seq-0"},
		{OK: true, Seq: seqs[0] + seqs[1] + 100, Owner: "stray-unknown-seq"},
		{OK: true, Seq: seqs[1], Owner: fmt.Sprint(seqs[1])},
		{OK: true, Seq: seqs[0], Owner: fmt.Sprint(seqs[0])},
	} {
		if err := WriteMessage(srv, resp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case a := <-answers:
			if a.err != nil {
				t.Fatalf("request %d: %v", a.seq, a.err)
			}
			if want := fmt.Sprint(a.seq); a.resp.Owner != want {
				t.Fatalf("request %d resolved by response %q, want its own (%q)", a.seq, a.resp.Owner, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending request never resolved")
		}
	}
	if !c.alive() {
		t.Fatal("stray responses killed the connection")
	}
}
