package nodeproto

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tinman/internal/node"
)

// FleetClient routes device-keyed operations across the members of a
// trusted-node fleet over the wire. Each member gets its own
// ReconnectClient (own breaker, own redial loop); device requests follow
// the fleet's ownership:
//
//   - the client remembers which member last served each device and sends
//     there first;
//   - a not-owner refusal carries the owning member in Response.Owner, and
//     the identical request — same ReqID — is resent there, so the replay
//     window that moved with the shard still dedups it;
//   - an unreachable member makes the client try the remaining members,
//     whose fleet router fails the device over on first contact.
type FleetClient struct {
	mu      sync.Mutex
	members map[string]*ReconnectClient
	order   []string
	route   map[string]string // deviceID -> member last known to own it
}

// DialFleet builds a fleet client over the member address map (member ID →
// addr). cfg is a per-member template: its Dial is replaced per member;
// its ClientID, when set, is suffixed per member so minted ReqIDs stay
// unique. Like DialReconnect it cannot fail — connectivity is lazy.
func DialFleet(members map[string]string, timeout time.Duration, cfg ReconnectConfig) *FleetClient {
	fc := &FleetClient{
		members: make(map[string]*ReconnectClient, len(members)),
		route:   make(map[string]string),
	}
	for id := range members {
		fc.order = append(fc.order, id)
	}
	sort.Strings(fc.order)
	for _, id := range fc.order {
		addr := members[id]
		mcfg := cfg
		mcfg.Dial = dialer(addr, timeout)
		if mcfg.ClientID != "" {
			mcfg.ClientID = mcfg.ClientID + "-" + id
		}
		fc.members[id] = NewReconnectClient(mcfg)
	}
	return fc
}

// Members lists member IDs in sorted order.
func (fc *FleetClient) Members() []string {
	return append([]string(nil), fc.order...)
}

// Member exposes one member's reconnecting client (handoff drivers, tests).
func (fc *FleetClient) Member(id string) (*ReconnectClient, bool) {
	rc, ok := fc.members[id]
	return rc, ok
}

// Close closes every member client, returning the first error.
func (fc *FleetClient) Close() error {
	var first error
	for _, id := range fc.order {
		if err := fc.members[id].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (fc *FleetClient) setRoute(deviceID, member string) {
	fc.mu.Lock()
	fc.route[deviceID] = member
	fc.mu.Unlock()
}

// firstTarget picks where to send a device's request: the cached route, or
// the first configured member (whose router answers with a redirect or a
// failover if it is not the owner).
func (fc *FleetClient) firstTarget(deviceID string) string {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if m, ok := fc.route[deviceID]; ok {
		return m
	}
	return fc.order[0]
}

// doDevice runs one device-keyed request to completion across the fleet,
// following not-owner redirects and falling past unreachable members. It
// returns the response and the member that served it. The request object
// is reused across hops on purpose: the first member's ReconnectClient
// mints the ReqID onto it, and every subsequent hop carries that same ID.
func (fc *FleetClient) doDevice(ctx context.Context, deviceID string, req *Request) (*Response, string, error) {
	if len(fc.order) == 0 {
		return nil, "", errors.New("nodeproto: fleet client has no members")
	}
	target := fc.firstTarget(deviceID)
	tried := map[string]bool{}
	var lastErr error
	// Hop budget: every member once via unavailability fallback, plus a
	// redirect per member for stale-route chains.
	for hop := 0; hop < 2*len(fc.order); hop++ {
		rc, ok := fc.members[target]
		if !ok {
			return nil, "", fmt.Errorf("nodeproto: fleet redirect to unknown member %q", target)
		}
		resp, err := rc.Do(ctx, req)
		if err == nil {
			fc.setRoute(deviceID, target)
			return resp, target, nil
		}
		lastErr = err
		if owner, redirected := RedirectOwner(err); redirected && owner != target {
			fc.setRoute(deviceID, owner)
			target = owner
			continue
		}
		if errors.Is(err, node.ErrNodeUnavailable) {
			// This member is unreachable; any other member's router will
			// fail the device over to a healthy owner on first contact.
			tried[target] = true
			next := ""
			for _, id := range fc.order {
				if !tried[id] {
					next = id
					break
				}
			}
			if next == "" {
				return nil, "", err
			}
			target = next
			continue
		}
		return nil, "", err
	}
	return nil, "", fmt.Errorf("nodeproto: fleet routing did not converge: %w", lastErr)
}

// Reseal performs payload replacement against whichever member owns the
// device, returning the resealed record and the member that served it.
func (fc *FleetClient) Reseal(ctx context.Context, corID string, state json.RawMessage, appHash, deviceID, domain, targetIP string, recordLen int) ([]byte, string, error) {
	resp, member, err := fc.doDevice(ctx, deviceID, &Request{
		Op: OpReseal, CorID: corID, State: state,
		AppHash: appHash, DeviceID: deviceID, Domain: domain, TargetIP: targetIP,
		RecordLen: recordLen,
	})
	if err != nil {
		return nil, member, err
	}
	return resp.Record, member, nil
}

// WhoOwns asks the fleet which member owns the device's shard, preferring
// the cached route's member as the oracle and falling back across members.
func (fc *FleetClient) WhoOwns(ctx context.Context, deviceID string) (string, error) {
	var lastErr error
	start := fc.firstTarget(deviceID)
	ids := append([]string{start}, fc.order...)
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		owner, err := fc.members[id].Do(ctx, &Request{Op: OpWhoOwns, DeviceID: deviceID})
		if err == nil {
			return owner.Owner, nil
		}
		lastErr = err
		if !errors.Is(err, node.ErrNodeUnavailable) {
			return "", err
		}
	}
	return "", lastErr
}

// Catalog fetches the device view from any reachable member (the catalog
// is replicated fleet-wide by the control plane).
func (fc *FleetClient) Catalog(ctx context.Context) ([]CatalogEntry, error) {
	var lastErr error
	for _, id := range fc.order {
		resp, err := fc.members[id].Do(ctx, &Request{Op: OpCatalog})
		if err == nil {
			return resp.Catalog, nil
		}
		lastErr = err
		if !errors.Is(err, node.ErrNodeUnavailable) {
			return nil, err
		}
	}
	return nil, lastErr
}

// AuditLog queries every reachable member and merges the entries: filtered
// by device, the merged stream is ordered by the per-device sequence that
// travels with the shard, so one device's history reads in true order even
// though it spans several nodes' logs.
func (fc *FleetClient) AuditLog(ctx context.Context, corID, deviceID string) ([]AuditEntry, error) {
	var (
		all     []AuditEntry
		reached int
		lastErr error
	)
	for _, id := range fc.order {
		resp, err := fc.members[id].Do(ctx, &Request{Op: OpAudit, CorID: corID, DeviceID: deviceID})
		if err != nil {
			lastErr = err
			if !errors.Is(err, node.ErrNodeUnavailable) {
				return nil, err
			}
			continue
		}
		reached++
		all = append(all, resp.Audit...)
	}
	if reached == 0 {
		return nil, lastErr
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Device == b.Device && a.DeviceSeq != b.DeviceSeq {
			return a.DeviceSeq < b.DeviceSeq
		}
		return a.Time < b.Time
	})
	return all, nil
}
