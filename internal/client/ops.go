package client

import (
	"context"

	"entangled/internal/wire"
)

// invoke runs one operation of wire's table over whichever transport
// the client holds.
func invoke[Q wire.Req, R any](ctx context.Context, t transport, o *wire.Op[Q, R], q Q) (R, error) {
	c := o.Bind(q)
	err := t.call(ctx, c)
	return c.Reply, err
}

// read is invoke for the operations whose public form returns a
// pointer (nil on error).
func read[Q wire.Req, R any](ctx context.Context, t transport, o *wire.Op[Q, R], q Q) (*R, error) {
	rep, err := invoke(ctx, t, o, q)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}
