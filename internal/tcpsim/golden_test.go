package tcpsim

import (
	"bytes"
	"testing"
	"time"

	"tinman/internal/netsim"
)

// TestTransportGolden pins the simulated network model: segmentation at the
// MSS, one ACK per data segment, the retransmission schedule and the link's
// serialization and jitter. A seeded Wi-Fi link carries 45 request frames
// of 16 KiB, each answered by a short reply, with a three-packet drop
// window in the middle of the stream. Any change to how tcpsim cuts, acks,
// resends or checksums bytes moves one of the recorded counters; a change
// that only moves bytes around in memory moves none of them.
func TestTransportGolden(t *testing.T) {
	const (
		frames   = 45
		frameLen = 16 << 10
		replyLen = 32
		dropAt   = 22
	)
	n := netsim.New(2015)
	dev := n.AddHost("10.0.0.2")
	srv := n.AddHost("10.8.0.1")
	link := n.Connect(dev, srv, netsim.WiFi)
	ds, ss := NewStack(n, dev), NewStack(n, srv)
	l, err := ss.Listen(7443)
	if err != nil {
		t.Fatal(err)
	}
	reply := bytes.Repeat([]byte{'r'}, replyLen)
	answered := 0
	l.OnAccept = func(c *Conn) {
		c.OnReadable = func() {
			for c.Readable() >= (answered+1)*frameLen {
				answered++
				if err := c.Write(reply); err != nil {
					t.Errorf("reply %d: %v", answered, err)
				}
			}
		}
	}
	c, err := ds.Dial("10.8.0.1", 7443)
	if err != nil {
		t.Fatal(err)
	}
	if !n.RunUntil(c.Established) {
		t.Fatal("handshake did not complete")
	}
	frame := make([]byte, frameLen)
	var lastReply time.Duration
	for i := 0; i < frames; i++ {
		for j := range frame {
			frame[j] = byte(i*7 + j)
		}
		if i == dropAt {
			link.DropNext(3)
		}
		if err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		want := (i + 1) * replyLen
		if !n.RunUntil(func() bool { return c.Readable() >= want }) {
			t.Fatalf("frame %d: reply never arrived", i)
		}
		lastReply = n.Now()
	}
	n.Run() // drain trailing ACKs and timers
	packets, bytesOut := n.Stats()
	got := [6]uint64{ds.Segments, ss.Segments, packets, bytesOut, uint64(lastReply), link.Dropped}
	want := [6]uint64{599, 595, 1191, 818791, 35391072081, 3}
	if got != want {
		t.Fatalf("device segments, node segments, packets, bytes, last reply (ns), dropped = %v, want %v", got, want)
	}
}
