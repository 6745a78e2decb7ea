package cluster

import (
	"fmt"
	"sort"
	"strings"

	"entangled/internal/db"
)

// Node is one cluster member: a stable name (the ring hashes names,
// so renaming a node moves its placements) and the binary wire address
// peers forward over and clients dial.
type Node struct {
	Name string
	Addr string
}

// Config is the static membership a node boots with. Every node in a
// cluster must be started with the same Nodes (Version fingerprints
// them, so disagreement is detectable); Self names this process's own
// entry.
type Config struct {
	// Self is this node's name; it must appear in Nodes.
	Self string
	// Nodes is the full membership, self included.
	Nodes []Node
}

// DefaultVNodes is the number of virtual ring points per node — enough
// that a 3-node ring balances within a few percent.
const DefaultVNodes = 64

// ParsePeers parses the -cluster-peers flag format: a comma-separated
// list of name=host:port entries, e.g.
//
//	a=10.0.0.1:9101,b=10.0.0.2:9101,c=10.0.0.3:9101
//
// Order does not matter; the ring is built from the sorted names.
func ParsePeers(s string) ([]Node, error) {
	var nodes []Node
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, addr, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: peer entry %q is not name=addr", ent)
		}
		name, addr = strings.TrimSpace(name), strings.TrimSpace(addr)
		if name == "" || addr == "" {
			return nil, fmt.Errorf("cluster: peer entry %q has an empty name or address", ent)
		}
		nodes = append(nodes, Node{Name: name, Addr: addr})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no peers in %q", s)
	}
	return nodes, nil
}

// normalize sorts the membership by name and validates: names unique
// and non-empty, addresses non-empty, Self present.
func (c Config) normalize() (Config, error) {
	if len(c.Nodes) == 0 {
		return c, fmt.Errorf("cluster: empty membership")
	}
	nodes := make([]Node, len(c.Nodes))
	copy(nodes, c.Nodes)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	c.Nodes = nodes
	seen := false
	for i, n := range nodes {
		if n.Name == "" || n.Addr == "" {
			return c, fmt.Errorf("cluster: node %d has an empty name or address", i)
		}
		if i > 0 && nodes[i-1].Name == n.Name {
			return c, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		if n.Name == c.Self {
			seen = true
		}
	}
	if !seen {
		return c, fmt.Errorf("cluster: self %q is not in the membership", c.Self)
	}
	return c, nil
}

// Version fingerprints the membership (names + addresses, order
// independent) and the virtual-node count: two nodes reporting the
// same version hold byte-identical rings and address tables.
func (c Config) Version() string {
	nodes := make([]Node, len(c.Nodes))
	copy(nodes, c.Nodes)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	c.Nodes = nodes
	// One FNV-1a pass over every field, each followed by a zero byte so
	// field boundaries cannot blur.
	var b strings.Builder
	fmt.Fprintf(&b, "v%d\x00", DefaultVNodes)
	for _, n := range c.Nodes {
		b.WriteString(n.Name + "\x00" + n.Addr + "\x00")
	}
	return fmt.Sprintf("ring-%08x", db.Hash(b.String()))
}
