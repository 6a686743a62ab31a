// Package fleet runs N trusted-node Services behind a consistent-hash
// router: devices are placed on a health-gated member ring, their shards
// move between members via the node package's export/import handoff, and a
// crashed member's devices fail over with gap-free per-device audit
// ordering (see DESIGN.md §fleet).
package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// vnodes is how many ring points each member contributes. 64 keeps the
// placement spread within a few percent of uniform for small fleets while
// the ring stays tiny (3 members × 64 points = 192 entries).
const vnodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member string
}

// ring is an immutable consistent-hash circle; the fleet rebuilds it on
// membership change and swaps it atomically under its lock. Health is not
// baked into the ring — lookup walks past unhealthy members — so a crash
// needs no rebuild and recovery restores the original placement.
type ring struct {
	points []ringPoint
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmix64(h.Sum64())
}

// fmix64 is MurmurHash3's 64-bit finalizer. Raw FNV-1a of short, similar
// strings ("node-a#0", "node-a#1", …) clusters badly — without this mixing
// every virtual node lands in one tiny arc of the circle and the ring
// degenerates to a single member.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// buildRing lays members' virtual nodes on the circle.
func buildRing(members []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*vnodes)}
	for _, m := range members {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(m + "#" + strconv.Itoa(i)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// lookup walks clockwise from the key's position to the first point whose
// member passes the health gate. ok is false when no member is eligible.
func (r *ring) lookup(key string, eligible func(string) bool) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if eligible(p.member) {
			return p.member, true
		}
	}
	return "", false
}
