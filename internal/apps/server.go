// Package apps provides the evaluation workloads: simulated origin servers
// (banks, web services) and the mobile applications — written in the VM's
// assembly — whose login and payment flows the paper measures (BankDroid,
// PayPal, eBay, GitHub, Ask.fm, the browser).
package apps

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"tinman/internal/core"
	"tinman/internal/httpsim"
	"tinman/internal/netsim"
	"tinman/internal/tcpsim"
	"tinman/internal/tlssim"
)

// serverKey is shared by all simulated servers: key generation is expensive
// and not part of any measured path.
var (
	serverKeyOnce sync.Once
	serverKeyVal  *rsa.PrivateKey
	serverKeyErr  error
)

func serverKey() (*rsa.PrivateKey, error) {
	serverKeyOnce.Do(func() {
		serverKeyVal, serverKeyErr = rsa.GenerateKey(rand.Reader, 1024)
	})
	return serverKeyVal, serverKeyErr
}

// OriginServer is a simulated HTTPS service: a TCP listener speaking the
// tlssim handshake-then-records convention, with a pluggable request
// handler. The default handler implements hash-based login (§2.1's "many
// bank web sites require the client to hash the plaintext ... and use the
// hash value for login").
type OriginServer struct {
	Domain string
	Addr   string
	Host   *netsim.Host
	Stack  *tcpsim.Stack

	// MaxVersion caps the TLS version (set TLS10 to model a legacy server
	// that TinMan must refuse).
	MaxVersion tlssim.Version
	// Users maps account -> password plaintext.
	Users map[string]string
	// Processing is per-request service time.
	Processing time.Duration
	// Handler overrides the default login handler.
	Handler func(req string) string

	// Requests records every decrypted request (test oracle: the server
	// must see real secrets, never placeholders).
	Requests []string

	w   *core.World
	key *rsa.PrivateKey
}

// NewOriginServer creates a server, links its host into the world and
// starts listening on :443.
func NewOriginServer(w *core.World, domain, addr string, users map[string]string) (*OriginServer, error) {
	key, err := serverKey()
	if err != nil {
		return nil, err
	}
	host := w.AddServerHost(domain, addr)
	s := &OriginServer{
		Domain:     domain,
		Addr:       addr,
		Host:       host,
		Stack:      tcpsim.NewStack(w.Net, host),
		MaxVersion: tlssim.TLS12,
		Users:      users,
		Processing: w.Cost.ServerProcessing,
		w:          w,
		key:        key,
	}
	l, err := s.Stack.Listen(443)
	if err != nil {
		return nil, err
	}
	l.OnAccept = s.onConn
	return s, nil
}

// serverConn is one client connection's state machine.
type serverConn struct {
	srv  *OriginServer
	tcp  *tcpsim.Conn
	hs   *tlssim.ServerState
	sess *tlssim.Session
}

func (s *OriginServer) onConn(c *tcpsim.Conn) {
	sc := &serverConn{srv: s, tcp: c}
	c.OnReadable = sc.onReadable
}

func (sc *serverConn) onReadable() {
	for {
		if sc.sess == nil {
			if !sc.stepHandshake() {
				return
			}
			continue
		}
		if !sc.stepRecord() {
			return
		}
	}
}

// stepHandshake consumes handshake frames; it reports whether progress was
// made.
func (sc *serverConn) stepHandshake() bool {
	f, n, err := core.NextFrame(sc.tcp.Buffered())
	if err != nil {
		sc.tcp.Abort()
		return false
	}
	if n == 0 {
		return false
	}
	// The payload aliases the receive buffer until the frame is handled.
	defer sc.tcp.Discard(n)

	switch f.Type {
	case core.HSClientHello:
		var ch tlssim.ClientHello
		if err := json.Unmarshal(f.Payload, &ch); err != nil {
			sc.tcp.Abort()
			return false
		}
		sh, st, err := tlssim.ServerRespond(tlssim.ServerConfig{MaxVersion: sc.srv.MaxVersion, Key: sc.srv.key}, &ch)
		if err != nil {
			sc.tcp.Abort()
			return false
		}
		sc.hs = st
		shJSON, _ := json.Marshal(sh)
		sc.tcp.Write(core.EncodeFrame(core.HSServerHello, shJSON))
	case core.HSKeyExchange:
		if sc.hs == nil {
			sc.tcp.Abort()
			return false
		}
		var cke tlssim.ClientKeyExchange
		if err := json.Unmarshal(f.Payload, &cke); err != nil {
			sc.tcp.Abort()
			return false
		}
		sess, err := tlssim.ServerFinish(sc.hs, &cke)
		if err != nil {
			sc.tcp.Abort()
			return false
		}
		sc.sess = sess
	default:
		sc.tcp.Abort()
		return false
	}
	return true
}

// stepRecord consumes one complete TLS record; it reports whether progress
// was made.
func (sc *serverConn) stepRecord() bool {
	buf := sc.tcp.Buffered()
	if len(buf) < 5 {
		return false
	}
	need := 5 + int(uint16(buf[3])<<8|uint16(buf[4]))
	if len(buf) < need {
		return false
	}
	_, plaintext, _, err := sc.sess.Open(buf[:need])
	sc.tcp.Discard(need)
	if err != nil {
		sc.tcp.Abort()
		return false
	}
	req := string(plaintext)
	sc.srv.Requests = append(sc.srv.Requests, req)

	handler := sc.srv.Handler
	if handler == nil {
		handler = sc.srv.loginHandler
	}
	resp := handler(req)
	// Service time is modeled by scheduling the response.
	sc.srv.w.Net.Schedule(sc.srv.Processing, func() {
		rec, err := sc.sess.Seal(tlssim.TypeApplicationData, []byte(resp))
		if err != nil {
			sc.tcp.Abort()
			return
		}
		sc.tcp.Write(rec)
	})
	return true
}

// loginHandler implements hash-based login: a POST whose form carries
// "user=<account>&hash=<sha256-hex of password>" (§2.1's hash-for-login
// sites). Requests are routed through the httpsim layer like a web stack
// would.
func (s *OriginServer) loginHandler(raw string) string {
	req, err := httpsim.ParseRequest(raw)
	if err != nil {
		return httpsim.NewResponse(400, "error=malformed-request").Format()
	}
	if req.Method != "POST" {
		return httpsim.NewResponse(404, "error=unknown-endpoint").Format()
	}
	user, hash := req.FormValue("user"), req.FormValue("hash")
	pw, ok := s.Users[user]
	if !ok {
		return httpsim.NewResponse(403, "error=unknown-user").Format()
	}
	want := sha256.Sum256([]byte(pw))
	if hash != hex.EncodeToString(want[:]) {
		return httpsim.NewResponse(403, "error=bad-credentials").Format()
	}
	token := sha256.Sum256([]byte(user + pw + "session"))
	return httpsim.NewResponse(200, "token="+hex.EncodeToString(token[:8])).Format()
}

// SawSubstring reports whether any decrypted request contained the given
// string — the oracle for "the server received the real secret" and "no
// placeholder reached the server".
func (s *OriginServer) SawSubstring(sub string) bool {
	for _, r := range s.Requests {
		if strings.Contains(r, sub) {
			return true
		}
	}
	return false
}

// PasswordHash returns the hex sha256 of a password — what the login
// handler expects in the hash field.
func PasswordHash(pw string) string {
	h := sha256.Sum256([]byte(pw))
	return hex.EncodeToString(h[:])
}

var _ = fmt.Sprintf // keep fmt for future handlers
