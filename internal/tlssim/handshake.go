package tlssim

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
)

// The handshake is a deliberately compact three-message exchange —
// ClientHello, ServerHello, ClientKeyExchange — with an RSA-encrypted
// pre-master secret. Version negotiation follows the paper's description
// (§3.2): the client announces the highest version it supports and the
// server picks the most recent version both sides share. TinMan's modified
// client library additionally enforces a floor of TLS 1.1.

// The hellos carry their randoms and the server's modulus as bytes, which
// encode at a fixed length. The handshake's size on the wire — and so its
// simulated transfer time — then depends on neither the crypto/rand draw
// nor the key, and a seeded run is reproducible.

// randomLen is the length of each hello's random.
const randomLen = 32

// ClientHello opens the handshake.
type ClientHello struct {
	MaxVersion Version `json:"max_version"`
	Suites     []Suite `json:"suites"`
	Random     []byte  `json:"random"`
}

// ServerHello answers with the chosen parameters and the server's RSA
// public key (standing in for the certificate): PubN is the modulus's
// big-endian bytes.
type ServerHello struct {
	Version Version `json:"version"`
	Suite   Suite   `json:"suite"`
	Random  []byte  `json:"random"`
	PubN    []byte  `json:"pub_n"`
	PubE    int     `json:"pub_e"`
}

// ClientKeyExchange carries the RSA-encrypted pre-master secret.
type ClientKeyExchange struct {
	EncryptedPreMaster []byte `json:"epm"`
}

// ClientConfig configures the initiating side.
type ClientConfig struct {
	// MinVersion is the lowest acceptable version. TinMan devices set
	// TLS11: accepting TLS 1.0 would let implicit-IV state sync leak cor
	// plaintext (fig 7).
	MinVersion Version
	// MaxVersion is announced in the ClientHello; zero means TLS12.
	MaxVersion Version
	// Suites lists acceptable suites in preference order; empty means both
	// built-ins with AES-CBC preferred.
	Suites []Suite
	// Rand supplies randoms and the pre-master secret; nil means
	// crypto/rand.
	Rand io.Reader
}

// ServerConfig configures the accepting side.
type ServerConfig struct {
	// MaxVersion caps what the server accepts; zero means TLS12. A legacy
	// server is modeled with MaxVersion: TLS10.
	MaxVersion Version
	// Suites lists supported suites; empty means both built-ins.
	Suites []Suite
	// Key is the server's RSA key (its "certificate").
	Key *rsa.PrivateKey
	// Rand supplies the server random; nil means crypto/rand.
	Rand io.Reader
}

func (c *ClientConfig) fill() {
	if c.MaxVersion == 0 {
		c.MaxVersion = TLS12
	}
	if c.MinVersion == 0 {
		c.MinVersion = TLS10
	}
	if len(c.Suites) == 0 {
		c.Suites = []Suite{SuiteAESCBCSHA256, SuiteRC4SHA256}
	}
	if c.Rand == nil {
		c.Rand = rand.Reader
	}
}

func (c *ServerConfig) fill() {
	if c.MaxVersion == 0 {
		c.MaxVersion = TLS12
	}
	if len(c.Suites) == 0 {
		c.Suites = []Suite{SuiteAESCBCSHA256, SuiteRC4SHA256}
	}
	if c.Rand == nil {
		c.Rand = rand.Reader
	}
}

// ClientState is the client's in-flight handshake state between hello and
// finish.
type ClientState struct {
	cfg   ClientConfig
	hello ClientHello
}

// NewClientHello begins a handshake.
func NewClientHello(cfg ClientConfig) (*ClientHello, *ClientState, error) {
	cfg.fill()
	ch := ClientHello{MaxVersion: cfg.MaxVersion, Suites: append([]Suite(nil), cfg.Suites...),
		Random: make([]byte, randomLen)}
	if _, err := io.ReadFull(cfg.Rand, ch.Random); err != nil {
		return nil, nil, fmt.Errorf("tlssim: client random: %v", err)
	}
	return &ch, &ClientState{cfg: cfg, hello: ch}, nil
}

// ServerState is the server's in-flight handshake state.
type ServerState struct {
	cfg         ServerConfig
	hello       ServerHello
	clientHello ClientHello
}

// ServerRespond picks the protocol parameters: the most recent version both
// support, and the client's most preferred mutually supported suite.
func ServerRespond(cfg ServerConfig, ch *ClientHello) (*ServerHello, *ServerState, error) {
	cfg.fill()
	if cfg.Key == nil {
		return nil, nil, fmt.Errorf("tlssim: server has no key")
	}
	if len(ch.Random) != randomLen {
		return nil, nil, fmt.Errorf("tlssim: client random of %d bytes, want %d", len(ch.Random), randomLen)
	}
	version := cfg.MaxVersion
	if ch.MaxVersion < version {
		version = ch.MaxVersion
	}
	if version < TLS10 {
		return nil, nil, fmt.Errorf("tlssim: no common version (client max %v, server max %v)", ch.MaxVersion, cfg.MaxVersion)
	}
	var suite Suite
	found := false
clientSuites:
	for _, cs := range ch.Suites {
		for _, ss := range cfg.Suites {
			if cs == ss {
				suite, found = cs, true
				break clientSuites
			}
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("tlssim: no common cipher suite")
	}
	sh := ServerHello{Version: version, Suite: suite, Random: make([]byte, randomLen),
		PubN: cfg.Key.N.Bytes(), PubE: cfg.Key.E}
	if _, err := io.ReadFull(cfg.Rand, sh.Random); err != nil {
		return nil, nil, fmt.Errorf("tlssim: server random: %v", err)
	}
	return &sh, &ServerState{cfg: cfg, hello: sh, clientHello: *ch}, nil
}

// ClientFinish validates the server's choice (enforcing MinVersion — the
// TinMan modification), generates and encrypts the pre-master secret, and
// derives the client's session.
func ClientFinish(st *ClientState, sh *ServerHello) (*ClientKeyExchange, *Session, error) {
	if sh.Version > st.hello.MaxVersion {
		return nil, nil, fmt.Errorf("tlssim: server chose %v above our max %v", sh.Version, st.hello.MaxVersion)
	}
	if sh.Version < st.cfg.MinVersion {
		return nil, nil, fmt.Errorf("tlssim: server chose %v below required minimum %v (TinMan forbids implicit-IV TLS)", sh.Version, st.cfg.MinVersion)
	}
	okSuite := false
	for _, s := range st.hello.Suites {
		if s == sh.Suite {
			okSuite = true
			break
		}
	}
	if !okSuite {
		return nil, nil, fmt.Errorf("tlssim: server chose unoffered suite %v", sh.Suite)
	}
	if len(sh.Random) != randomLen || len(sh.PubN) == 0 {
		return nil, nil, fmt.Errorf("tlssim: malformed ServerHello (random %d bytes, modulus %d bytes)", len(sh.Random), len(sh.PubN))
	}

	preMaster := make([]byte, 48)
	if _, err := io.ReadFull(st.cfg.Rand, preMaster); err != nil {
		return nil, nil, fmt.Errorf("tlssim: pre-master: %v", err)
	}
	pub := &rsa.PublicKey{N: new(big.Int).SetBytes(sh.PubN), E: sh.PubE}
	epm, err := rsa.EncryptOAEP(sha256.New(), st.cfg.Rand, pub, preMaster, []byte("tinman-premaster"))
	if err != nil {
		return nil, nil, fmt.Errorf("tlssim: encrypting pre-master: %v", err)
	}

	sess, err := buildSession(true, sh.Version, sh.Suite, preMaster, st.hello.Random, sh.Random, st.cfg.Rand)
	if err != nil {
		return nil, nil, err
	}
	return &ClientKeyExchange{EncryptedPreMaster: epm}, sess, nil
}

// ServerFinish decrypts the pre-master and derives the server's session.
func ServerFinish(st *ServerState, cke *ClientKeyExchange) (*Session, error) {
	preMaster, err := rsa.DecryptOAEP(sha256.New(), nil, st.cfg.Key, cke.EncryptedPreMaster, []byte("tinman-premaster"))
	if err != nil {
		return nil, fmt.Errorf("tlssim: decrypting pre-master: %v", err)
	}
	return buildSession(false, st.hello.Version, st.hello.Suite, preMaster, st.clientHello.Random, st.hello.Random, st.cfg.Rand)
}

// buildSession derives directional keys and assembles a Session for one
// role.
func buildSession(isClient bool, version Version, suite Suite, preMaster, clientRandom, serverRandom []byte, rnd io.Reader) (*Session, error) {
	master := masterSecret(preMaster, clientRandom, serverRandom)
	kb := deriveKeys(master, clientRandom, serverRandom)
	clientHalf := func() *halfConn {
		return newHalfConn(version, suite, kb.ClientMAC, kb.ClientKey, kb.ClientIV, rnd)
	}
	serverHalf := func() *halfConn {
		return newHalfConn(version, suite, kb.ServerMAC, kb.ServerKey, kb.ServerIV, rnd)
	}
	s := &Session{version: version, suite: suite, isClient: isClient}
	if isClient {
		s.out, s.in = clientHalf(), serverHalf()
	} else {
		s.out, s.in = serverHalf(), clientHalf()
	}
	return s, nil
}

// Handshake runs the whole exchange in-process and returns both sessions —
// a convenience for tests and for simulated origin servers whose handshake
// latency is modeled at the network layer rather than by shipping the
// individual messages.
func Handshake(ccfg ClientConfig, scfg ServerConfig) (client, server *Session, wireBytes int, err error) {
	ch, cst, err := NewClientHello(ccfg)
	if err != nil {
		return nil, nil, 0, err
	}
	sh, sst, err := ServerRespond(scfg, ch)
	if err != nil {
		return nil, nil, 0, err
	}
	cke, client, err := ClientFinish(cst, sh)
	if err != nil {
		return nil, nil, 0, err
	}
	server, err = ServerFinish(sst, cke)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, m := range []any{ch, sh, cke} {
		b, err := json.Marshal(m)
		if err != nil {
			return nil, nil, 0, err
		}
		wireBytes += len(b)
	}
	return client, server, wireBytes, nil
}
