package server

import "entangled/internal/wire"

// OpInfo is one operation-table entry as the cross-codec tests see it:
// Kind 0 marks an HTTP-only operation, an empty Pattern a binary-only
// one.
type OpInfo struct {
	Name    string
	Kind    wire.Kind
	Pattern string
}

// Operations lists the operation table.
func Operations() []OpInfo {
	out := make([]OpInfo, len(ops))
	for i, o := range ops {
		out[i].Name, out[i].Kind, out[i].Pattern = o.route()
	}
	return out
}
