package cluster

import (
	"fmt"
	"sort"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// point is one virtual node position on the ring.
type point struct {
	hash uint32
	node string
}

// Ring is a consistent-hash ring: each node contributes vnodes virtual
// points (the hash of "name#i"), and a key is owned by the node whose
// point follows the key's hash clockwise. The construction is a pure
// function of the sorted member names and the virtual-point count, so
// every process given the same membership builds the identical ring —
// there is no ring-state protocol to run.
//
// A Ring is immutable after New and safe for concurrent use.
type Ring struct {
	points []point
	nodes  []string // sorted member names
}

// NewRing builds the ring over the given member names (order
// independent; vnodes < 1 means DefaultVNodes).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	sorted := make([]string, len(nodes))
	copy(sorted, nodes)
	sort.Strings(sorted)
	r := &Ring{nodes: sorted, points: make([]point, 0, len(nodes)*vnodes)}
	for _, n := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: db.Hash(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	// Ties broken by name so the ring is deterministic even on hash
	// collisions between different nodes' points.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the member owning key: the node of the first virtual
// point at or after db.Hash(key), wrapping at the top of the ring.
func (r *Ring) Owner(key string) string {
	return r.ownerOf(db.Hash(key))
}

// OwnerOfValue returns the member owning a relation value — the
// cluster-level analogue of db's shardIndex.
func (r *Ring) OwnerOfValue(v eq.Value) string {
	return r.ownerOf(db.Hash(string(v)))
}

func (r *Ring) ownerOf(h uint32) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// OwnerOfQueries returns the single member owning every body atom of
// every query: db.PlaceQueries — the contract db.ShardedInstance.Route
// applies to shards — with the ring as the place function. ok=false
// means the request has no single owner and the receiving node serves
// it locally against its full replica.
func OwnerOfQueries(r *Ring, placement map[string]int, qs []eq.Query) (owner string, ok bool) {
	return db.PlaceQueries(qs, func(rel string) (int, bool) {
		col, known := placement[rel]
		return col, known
	}, r.OwnerOfValue)
}
