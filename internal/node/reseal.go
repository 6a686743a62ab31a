package node

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/maphash"
	"sync"

	"tinman/internal/audit"
	"tinman/internal/obs"
	"tinman/internal/tlssim"
)

// ResealRequest carries one payload-replacement request: given a device's
// exported session state and a cor, produce the record the trusted node
// sends on the device's behalf (§3.2–§3.3).
type ResealRequest struct {
	CorID    string
	AppHash  string
	DeviceID string
	Domain   string
	TargetIP string
	// State is the device's exported tlssim session state, still marshaled
	// so the Service can memoize parses across identical re-sends.
	State json.RawMessage
	// RecordLen is the length of the placeholder-bearing record the device
	// would have sent; a non-zero value is verified so the replacement never
	// desynchronizes TCP sequence numbers. 0 skips the check.
	RecordLen int
}

// Reseal checks policy for the cor's lineage, joins the session, and seals
// the cor plaintext into a wire record.
func (s *Service) Reseal(ctx context.Context, req ResealRequest) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec := s.Cors.Get(req.CorID)
	if rec == nil {
		return nil, errf(ErrUnknownCor, "unknown cor %q", req.CorID)
	}
	sh, err := s.shardEnter(req.DeviceID)
	if err != nil {
		return nil, err
	}
	defer sh.exit()
	checkID, stamp, err := s.checkSend(ctx, rec, req.AppHash, req.DeviceID, req.Domain, req.TargetIP)
	if err != nil {
		return nil, err
	}
	st, ok := sh.states.get(req.State)
	if !ok {
		st, err = tlssim.UnmarshalState(req.State)
		if err != nil {
			return nil, errf(ErrBadRequest, "bad session state: %v", err)
		}
		sh.states.put(req.State, st)
	}
	// The modified client library refuses TLS 1.0 before ever reaching this
	// point; the node double-checks (defense in depth, §3.2).
	if st.Version <= tlssim.TLS10 {
		if aerr := s.auditAppendStamped(stamp, req.AppHash, checkID, req.DeviceID, req.Domain, audit.OutcomeDenied, "TLS1.0 session refused"); aerr != nil {
			return nil, aerr
		}
		return nil, errf(ErrWeakTLS, "refusing %v session: implicit-IV state sync leaks plaintext (fig 7)", st.Version)
	}
	// The vault_open span brackets the only stretch where cor plaintext is
	// live outside the store; the span itself carries nothing but the cor ID
	// and output size (typed fields — plaintext is unrepresentable).
	var vspan *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		vspan = parent.Child(obs.PhaseVaultOpen, obs.Cor(checkID))
		vspan.Add(st.ObsFields()...)
	}
	s.met.vaultOpens.Inc()
	sess, err := tlssim.Resume(st, nil)
	if err != nil {
		vspan.Add(obs.Err(obs.ErrBadRequest))
		vspan.End()
		return nil, errf(ErrBadRequest, "resuming session: %v", err)
	}
	out, err := sess.Seal(tlssim.TypeApplicationData, []byte(rec.Plaintext))
	if err != nil {
		vspan.Add(obs.Err(obs.ErrBadRequest))
		vspan.End()
		return nil, errf(ErrBadRequest, "sealing: %v", err)
	}
	vspan.Add(obs.Bytes(len(out)))
	vspan.End()
	if req.RecordLen > 0 && len(out) != req.RecordLen {
		return nil, errf(ErrRecordLength, "resealed record %dB != placeholder record %dB (would desynchronize TCP)", len(out), req.RecordLen)
	}
	if aerr := s.auditAppendStamped(stamp, req.AppHash, checkID, req.DeviceID, req.Domain, audit.OutcomeAllowed, "record resealed"); aerr != nil {
		return nil, aerr
	}
	return out, nil
}

// stateCache memoizes parsed session states. A device re-sends the
// identical exported state for every record it offloads on a connection
// (§3.4), so without the cache the node re-parses the same multi-kilobyte
// blob on every reseal. Entries are keyed by a hash of the raw bytes with
// full byte equality checked on hit — a hash collision can evict, never
// confuse states. tlssim.Resume copies all key material out of a State, so
// a cached *State is shared read-only across reseals.
type stateCache struct {
	mu sync.Mutex
	m  map[uint64]stateEntry
}

type stateEntry struct {
	raw []byte
	st  *tlssim.State
}

// stateCacheMax bounds the cache; when full it is cleared rather than
// tracking recency — one miss per distinct state per generation is cheap,
// an eviction policy on this path is not.
const stateCacheMax = 256

var stateHashSeed = maphash.MakeSeed()

func (c *stateCache) get(raw []byte) (*tlssim.State, bool) {
	h := maphash.Bytes(stateHashSeed, raw)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[h]
	if !ok || !bytes.Equal(e.raw, raw) {
		return nil, false
	}
	return e.st, true
}

// len reports the number of cached states (shard introspection and the
// detach-eviction regression test).
func (c *stateCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *stateCache) put(raw []byte, st *tlssim.State) {
	h := maphash.Bytes(stateHashSeed, raw)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || len(c.m) >= stateCacheMax {
		c.m = make(map[uint64]stateEntry)
	}
	c.m[h] = stateEntry{raw: append([]byte(nil), raw...), st: st}
}
