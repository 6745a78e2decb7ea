// Package wire is the coordination service's binary protocol: a
// length-prefixed, CRC-framed codec over one persistent TCP connection,
// built to kill the ~4x per-request overhead the HTTP/JSON path
// measured when it was added (JSON encode/decode plus per-batch TCP
// round trips; the batch_http_small and batch_binary_large workloads of
// bench/coordmark measure the two protocols today).
//
// A connection starts with the 4-byte Magic preamble, then carries
// frames in both directions. Framing is internal/frame — the same
// 4-byte little-endian payload length, 4-byte CRC-32 (IEEE), payload
// discipline the WAL files use; ReadFrame and WriteFrame only map its
// typed failure reasons to this package's errors — with the payload
// holding a one-byte message Kind, a uvarint pipelining id, and a
// kind-specific body. The request bodies (the *Req structs) are the
// request types of the server's operation table and the client's op
// descriptors on both protocols; KindTenant and KindForward are
// envelopes around them. Requests pipeline: clients issue any number of concurrent
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
// by golden frame files in testdata/. Encode and decode buffers pool
// (GetBuf/PutBuf), so a busy connection's steady state allocates
// little beyond the decoded DTOs themselves.
//
// Decoding is hostile-input safe: every length is validated against
// the remaining payload before allocation, malformed input yields a
// typed *DecodeError (errors.Is ErrMalformed), and FuzzBinaryDecode
// keeps the no-panic, no-hang property honest.
package wire
