// Package client is the typed Go client for the coordination service
// (internal/server): batch coordination, streaming sessions, and the
// operational surface — one API over interchangeable transports. An
// "http://" or "https://" base URL speaks the HTTP/JSON protocol; a
// "tcp://" (or "binary://") base URL speaks the binary wire protocol
// (internal/wire) over one persistent pipelined connection, which also
// carries server-push notifications for parked arrivals. Callers
// switch protocols by changing the URL and nothing else. A client of a
// coordserve cluster points at any node: that node places each call,
// forwarding a misplaced one a single hop to its owner (internal/cluster),
// so the client holds no ring and the answers, DBQueries included, are
// the ones the owner gives. Only a subscribe must reach the session's
// owner; elsewhere it is refused with route_moved naming the owner.
//
// The client describes no operation itself: each public method binds
// a row of internal/wire's operation table — name, binary kind, HTTP
// verb and path, JSON body, reply decoder, routing key — to its request
// and hands the resulting wire.Call to the transport. The transport
// interface is three methods (call, subscribe, close); every transport
// serves every operation generically from the call, so all of them
// decode the same internal/api DTOs and produce the same typed *Error
// values. The HTTP transport follows no redirect: the service issues
// none, and a path a server rewrote is another operation's.
//
// A service failure is the *Error (api.Error) the server answered, the
// same value over every transport: errors.Is(err,
// coord.ErrUnsafeArrival), errors.Is(err, api.ErrSessionNotFound) and
// friends hold across the network exactly as they do in-process, and
// IsRetryable and FateKnown read the error contract's table (DESIGN.md,
// "Error contract") to say what the caller may do next.
package client
