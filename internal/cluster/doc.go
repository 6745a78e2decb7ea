// Package cluster turns N coordserve processes into one logical
// service: static membership, a consistent-hash ring with virtual
// nodes, and a per-node Router that serves locally-owned work and
// forwards the rest over pooled binary connections.
//
// The ring owns two placements, both computed by the functions the
// in-process db.ShardedInstance shards with — db.Hash for a key's
// position and db.PlaceQueries for a request's single owner:
//
//   - named streaming sessions are placed by session name, preserving
//     the registry's single-goroutine-per-session model per node — a
//     session has exactly one home, so its event order is exactly the
//     single-node order;
//   - batch coordination requests are placed by the constant their body
//     atoms pin to their relation's hash column (the ShardedInstance
//     placement contract, lifted from shard index to ring owner). A
//     request whose bodies do not pin a single owner is served by the
//     node that received it — every node holds a full replica of the
//     reference store, so any node computes bit-identical results; the
//     ring only decides locality.
//
// Forwards travel inside wire.KindForward envelopes over one
// persistent pipelined connection per peer and are terminal: a node
// that receives a forward for a target it does not own answers a typed
// route_moved error naming the owner instead of forwarding again, so a
// request crosses at most one node boundary and a stale ring can never
// create a forwarding loop. A client never needs the ring: any node
// serves any call, and a misplaced one costs one forward hop.
// CoordinateMany batches whose requests span owners are
// scatter-gathered by Router.ServeBatch: split by owner, served
// concurrently, and merged back in request order with exact
// per-request DBQueries preserved.
package cluster
