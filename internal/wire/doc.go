// Package wire is the coordination service's protocol: what its
// operations are, and the binary encoding that carries them.
//
// The operations are the table in ops.go — one Op[Q, R] row each, read
// by both ends of the wire: name, binary Kind, HTTP verb and path,
// routing key, request and reply codecs, and the mapping between the
// *Req request types (the request types of both protocols) and the
// internal/api JSON bodies HTTP carries. internal/server adds what
// serving takes over a row; internal/client binds a row to a request
// (Op.Bind) and sends the Call — the form in which every request
// leaves a process, also across the forward hop between nodes, and the
// one place a binary reply body becomes a typed reply
// (Bound.DecodeReply).
//
// The binary protocol is a length-prefixed, CRC-framed codec over one
// persistent TCP connection (the batch_http_small and
// batch_binary_large workloads of bench/coordmark measure what it saves
// over HTTP/JSON). A connection starts with the 4-byte Magic preamble, then carries
// frames in both directions. Framing is internal/frame — the same
// 4-byte little-endian payload length, 4-byte CRC-32 (IEEE), payload
// discipline the WAL files use; ReadFrame maps its typed failure
// reasons to this package's errors, and EncodeFrame encodes a payload
// after a header's room and fills the header in — with the payload
// holding a one-byte message Kind, a uvarint pipelining id, and a
// kind-specific body; KindTenant and KindForward are envelopes around
// a request. Requests pipeline: clients issue any number of concurrent
// calls over one connection, the server answers each with a KindReply
// frame echoing its id, and replies resolve out of order as work
// finishes. KindPush frames (id 0) flow server-to-client without a
// request: a parked unsafe arrival that a later departure admitted
// notifies subscribed connections instead of being polled for.
//
// The codec encodes exactly the internal/api DTO schema the HTTP/JSON
// protocol serves, and its decoders reproduce the JSON codec's
// nil-versus-empty semantics, so a payload decoded from either
// protocol is DeepEqual to the other's — the cross-codec equivalence
// tests in internal/server pin that. Encoders are deterministic (maps
// in sorted key order): identical DTOs yield identical frames, pinned
// by golden frame files in testdata/. Buffers pool (GetBuf/PutBuf,
// ReadPooled, Reply, ReadBody), and either protocol's coordinate batch
// decodes into a pooled slab its server hands back (CoordinateReq.Release),
// so a busy connection's steady state allocates little beyond strings.
//
// Decoding is hostile-input safe: every length is validated against
// the remaining payload before allocation, malformed input yields a
// typed *DecodeError (errors.Is ErrMalformed), and FuzzBinaryDecode
// keeps the no-panic, no-hang property honest.
package wire
