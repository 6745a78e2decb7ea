// Package frame is the one framing discipline the repo writes to disk
// and to sockets: 4-byte little-endian payload length, 4-byte CRC-32
// (IEEE) of the payload, then the payload, capped at Max bytes.
//
// internal/persist frames WAL, snapshot and session-journal records
// with it (ReplayFrames loops over Read and positions each failure as
// a *persist.CorruptError); internal/wire frames every binary-protocol
// message with it (ReadFrame maps a failure to a *wire.DecodeError or
// io.ErrUnexpectedEOF). Both see the same four typed failure reasons,
// so a byte sequence one layer rejects the other rejects too.
package frame
