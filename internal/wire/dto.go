package wire

import (
	"slices"
	"sync"

	"entangled/internal/api"
	"entangled/internal/coord"
	"entangled/internal/eq"
)

// DTO codecs. Every encoder is deterministic (maps are emitted in
// sorted key order), so identical DTOs produce identical frames — the
// golden-frame tests rely on that. Every decoder reproduces the JSON
// codec's nil-versus-empty semantics exactly: fields the JSON encoding
// round-trips as nil (omitempty slices and maps, JSON null) decode to
// nil here too, so a DTO decoded from the binary wire is DeepEqual to
// the same DTO decoded from the HTTP wire.
//
// Slices that are NOT omitempty in the JSON schema use a
// presence-prefixed length (0 = nil, n+1 = n elements), preserving the
// nil/empty distinction the JSON null/[] pair carries; omitempty
// slices and maps normalize empty to nil on encode, the way omitempty
// drops them from the JSON body.

// putSlice appends a presence-prefixed length: 0 for nil, n+1 for n
// elements.
func putSlice[T any](e *Enc, s []T) int {
	if s == nil {
		e.Uvarint(0)
		return 0
	}
	e.Uvarint(uint64(len(s)) + 1)
	return len(s)
}

// getSlice reads a presence-prefixed length: -1 for nil, else the
// element count (validated against the remaining payload at minBytes
// per element).
func getSlice(d *Dec, minBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return -1
	}
	if n == 0 {
		return -1
	}
	n--
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(d.Remaining()/minBytes) {
		d.fail("slice length exceeds remaining bytes")
		return -1
	}
	return int(n)
}

// omitEmpty normalizes an omitempty-tagged slice: JSON drops it when
// empty, so the decoder on the other side sees nil either way.
func omitEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// --- eq types ---

// PutTerm appends one term.
func PutTerm(e *Enc, t eq.Term) {
	e.Byte(byte(t.Kind))
	e.String(t.Name)
}

// GetTerm reads one term, enforcing the JSON codec's validity rules
// (kind must be const or var; variables need a name).
func GetTerm(d *Dec) eq.Term {
	k := d.Byte()
	name := d.String()
	if d.err != nil {
		return eq.Term{}
	}
	switch eq.TermKind(k) {
	case eq.TermConst:
		return eq.C(eq.Value(name))
	case eq.TermVar:
		if name == "" {
			d.fail("variable term with empty name")
			return eq.Term{}
		}
		return eq.V(name)
	default:
		d.fail("bad term kind")
		return eq.Term{}
	}
}

// PutAtom appends one atom.
func PutAtom(e *Enc, a eq.Atom) {
	e.String(a.Rel)
	n := putSlice(e, a.Args)
	for i := 0; i < n; i++ {
		PutTerm(e, a.Args[i])
	}
}

// getAtom reads one atom, its arguments cut from s (nil makes them).
func getAtom(d *Dec, s *batchSlab) eq.Atom {
	var a eq.Atom
	a.Rel = d.String()
	if d.err == nil && a.Rel == "" {
		d.fail("atom without relation name")
		return eq.Atom{}
	}
	if n := getSlice(d, 2); n >= 0 {
		a.Args = cut(s, func(s *batchSlab) *[]eq.Term { return &s.ts }, n)
		for i := range a.Args {
			a.Args[i] = GetTerm(d)
		}
	}
	return a
}

func putAtoms(e *Enc, atoms []eq.Atom) {
	n := putSlice(e, atoms)
	for i := 0; i < n; i++ {
		PutAtom(e, atoms[i])
	}
}

func getAtoms(d *Dec, s *batchSlab) []eq.Atom {
	n := getSlice(d, 2)
	if n < 0 {
		return nil
	}
	atoms := cut(s, func(s *batchSlab) *[]eq.Atom { return &s.as }, n)
	for i := range atoms {
		atoms[i] = getAtom(d, s)
	}
	return atoms
}

// PutQuery appends one query (Post and Body are omitempty in the JSON
// schema; Head is not).
func PutQuery(e *Enc, q eq.Query) {
	e.String(q.ID)
	putAtoms(e, omitEmpty(q.Post))
	putAtoms(e, q.Head)
	putAtoms(e, omitEmpty(q.Body))
}

// GetQuery reads one query.
func GetQuery(d *Dec) eq.Query { return getQuery(d, nil) }

func getQuery(d *Dec, s *batchSlab) eq.Query {
	var q eq.Query
	q.ID = d.String()
	q.Post = getAtoms(d, s)
	q.Head = getAtoms(d, s)
	q.Body = getAtoms(d, s)
	return q
}

// PutQueries appends a query slice (presence-prefixed).
func PutQueries(e *Enc, qs []eq.Query) {
	n := putSlice(e, qs)
	for i := 0; i < n; i++ {
		PutQuery(e, qs[i])
	}
}

// GetQueries reads a query slice.
func GetQueries(d *Dec) []eq.Query { return getQueries(d, nil) }

func getQueries(d *Dec, s *batchSlab) []eq.Query {
	n := getSlice(d, 4)
	if n < 0 {
		return nil
	}
	qs := cut(s, func(s *batchSlab) *[]eq.Query { return &s.qs }, n)
	for i := range qs {
		qs[i] = getQuery(d, s)
	}
	return qs
}

// batchSlab holds what a coordinate batch decodes into besides its
// strings: four arrays a frame's slices are cut from, and body, which an
// HTTP body is unmarshalled into in place. So a pooled slab decodes a
// batch of the size it last saw without allocating a slice. Strings
// stay ordinary allocations: a result's value map keys are the
// request's variable names, and db's plan cache keeps a relation name.
// A nil *batchSlab makes every slice afresh.
type batchSlab struct {
	reqs []api.Request
	qs   []eq.Query
	as   []eq.Atom
	ts   []eq.Term
	body api.CoordinateRequest
}

// slabCap bounds each of a pooled slab's arrays, in elements: a slab
// one large batch grew past it is left to the collector, so a hostile
// MaxFrame batch does not pin its memory (db's frames stop at 1,024
// slots the same way).
const slabCap = 1 << 12

var slabs = sync.Pool{New: func() any { return new(batchSlab) }}

// cut hands out n elements of the array field picks from s, their
// capacity capped at n so an append to one slice copies instead of
// writing into the next. An array too short for them is replaced by a
// larger one; the slices already cut keep the old one alive. Without a
// slab the elements are made afresh, and an empty slice is non-nil
// either way, as the JSON decode makes it.
func cut[T any](s *batchSlab, field func(*batchSlab) *[]T, n int) []T {
	if s == nil || n == 0 {
		return make([]T, n)
	}
	a := *field(s)
	if len(a)+n > cap(a) {
		a = make([]T, 0, max(2*cap(a), n, 64))
	}
	*field(s) = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
}

// release clears what s handed out and pools it, unless one of its
// arrays, or body at any level, grew past slabCap elements.
func (s *batchSlab) release() {
	if s == nil || max(cap(s.reqs), cap(s.qs), cap(s.as), cap(s.ts)) > slabCap || !s.clearBody() {
		return
	}
	clear(s.reqs)
	clear(s.qs)
	clear(s.as)
	clear(s.ts)
	s.reqs, s.qs, s.as, s.ts = s.reqs[:0], s.qs[:0], s.as[:0], s.ts[:0]
	slabs.Put(s)
}

// clearBody readies body for the next decode and reports whether each
// level held at most slabCap elements. The JSON decoder merges into the
// elements it reaches, up to a slice's capacity, so each is reset to a
// fresh one, save that its slices keep their capacity at length zero:
// an omitted "post", "head", "body" or "queries" decodes empty, not nil.
func (s *batchSlab) clearBody() bool {
	var n [4]int // requests, queries, atoms, terms
	atom := func(a *eq.Atom) { *a = eq.Atom{Args: resetAll(a.Args, &n[3], func(t *eq.Term) { *t = eq.Term{} })} }
	s.body.Requests = resetAll(s.body.Requests, &n[0], func(r *api.Request) {
		*r = api.Request{Queries: resetAll(r.Queries, &n[1], func(q *eq.Query) {
			*q = eq.Query{Post: resetAll(q.Post, &n[2], atom), Head: resetAll(q.Head, &n[2], atom), Body: resetAll(q.Body, &n[2], atom)}
		})}
	})
	return max(n[0], n[1], n[2], n[3]) <= slabCap
}

// resetAll resets each element of s up to its capacity, adds their
// number to n and returns s at length zero.
func resetAll[T any](s []T, n *int, reset func(*T)) []T {
	s = s[:cap(s)]
	*n += len(s)
	for i := range s {
		reset(&s[i])
	}
	return s[:0]
}

// --- coord types ---

func putInts(e *Enc, xs []int) {
	n := putSlice(e, xs)
	for i := 0; i < n; i++ {
		e.Int(xs[i])
	}
}

func getInts(d *Dec) []int {
	n := getSlice(d, 1)
	if n < 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = d.Int()
	}
	return xs
}

// PutResult appends a coordination result. Values is emitted in sorted
// (query index, variable name) order for determinism; an empty map is
// normalized to absent, matching the JSON omitempty behaviour. The keys
// and names are sorted in stack buffers, which a set of up to 128
// queries of up to 8 variables each never outgrows: such a result
// encodes without allocating.
func PutResult(e *Enc, r *coord.Result) {
	if r == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	putInts(e, r.Set)
	if len(r.Values) == 0 {
		e.Uvarint(0)
	} else {
		e.Uvarint(uint64(len(r.Values)))
		var keyBuf [128]int
		var nameBuf [8]string
		keys, names := keyBuf[:0], nameBuf[:0] // names: one scratch for every query's
		for k := range r.Values {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			e.Int(k)
			vals := r.Values[k]
			e.Uvarint(uint64(len(vals)))
			names = names[:0]
			for name := range vals {
				names = append(names, name)
			}
			slices.Sort(names)
			for _, name := range names {
				e.String(name)
				e.String(string(vals[name]))
			}
		}
	}
	e.Int64(r.DBQueries)
}

// GetResult reads a coordination result (nil when absent).
func GetResult(d *Dec) *coord.Result {
	if !d.Bool() {
		return nil
	}
	var r coord.Result
	r.Set = getInts(d)
	if n := d.Len(2); n > 0 {
		r.Values = make(map[int]map[string]eq.Value, n)
		for i := 0; i < n; i++ {
			k := d.Int()
			m := d.Len(2)
			vals := make(map[string]eq.Value, m)
			for j := 0; j < m; j++ {
				name := d.String()
				vals[name] = eq.Value(d.String())
			}
			if d.err != nil {
				return nil
			}
			r.Values[k] = vals
		}
	}
	r.DBQueries = d.Int64()
	if d.err != nil {
		return nil
	}
	return &r
}

// PutDeltaStats appends incremental event statistics.
func PutDeltaStats(e *Enc, s coord.DeltaStats) {
	e.Int(s.Slot)
	e.Int(s.Components)
	e.Int(s.Dirty)
	e.Int(s.Reused)
	e.Int64(s.DBQueries)
}

// GetDeltaStats reads incremental event statistics.
func GetDeltaStats(d *Dec) coord.DeltaStats {
	return coord.DeltaStats{
		Slot:       d.Int(),
		Components: d.Int(),
		Dirty:      d.Int(),
		Reused:     d.Int(),
		DBQueries:  d.Int64(),
	}
}

// PutTrace appends a coordination trace (nil-safe; Pruned and
// Components are omitempty in the JSON schema, as are ComponentEvent's
// Set, SetSize and Combined).
func PutTrace(e *Enc, tr *coord.Trace) {
	if tr == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	pruned := omitEmpty(tr.Pruned)
	n := putSlice(e, pruned)
	for i := 0; i < n; i++ {
		e.Int(pruned[i].Query)
		e.String(pruned[i].Reason)
	}
	comps := omitEmpty(tr.Components)
	n = putSlice(e, comps)
	for i := 0; i < n; i++ {
		c := comps[i]
		putInts(e, c.Members)
		putInts(e, omitEmpty(c.Set))
		e.String(c.Status)
		e.Int(c.SetSize)
		e.String(c.Combined)
	}
}

// GetTrace reads a coordination trace (nil when absent).
func GetTrace(d *Dec) *coord.Trace {
	if !d.Bool() {
		return nil
	}
	var tr coord.Trace
	if n := getSlice(d, 2); n >= 0 {
		tr.Pruned = make([]coord.PruneEvent, n)
		for i := range tr.Pruned {
			tr.Pruned[i] = coord.PruneEvent{Query: d.Int(), Reason: d.String()}
		}
	}
	if n := getSlice(d, 4); n >= 0 {
		tr.Components = make([]coord.ComponentEvent, n)
		for i := range tr.Components {
			tr.Components[i] = coord.ComponentEvent{
				Members:  getInts(d),
				Set:      getInts(d),
				Status:   d.String(),
				SetSize:  d.Int(),
				Combined: d.String(),
			}
		}
	}
	if d.err != nil {
		return nil
	}
	return &tr
}

// --- api types ---

// PutError appends an inline error (nil-safe presence flag).
func PutError(e *Enc, we *api.Error) {
	e.Bool(we != nil)
	if we != nil {
		putErrorFields(e, we)
	}
}

// GetError reads an inline error (nil when absent).
func GetError(d *Dec) *api.Error {
	if !d.Bool() {
		return nil
	}
	we := getErrorFields(d)
	if d.err != nil {
		return nil
	}
	return we
}

// putErrorFields and getErrorFields are the one encoding of an error's
// fields, shared by the inline form and the failed reply.
func putErrorFields(e *Enc, we *api.Error) {
	e.String(we.Code)
	e.String(we.Message)
	e.String(we.Owner)
	e.Int64(we.RetryAfterMS)
}

func getErrorFields(d *Dec) *api.Error {
	return &api.Error{Code: d.String(), Message: d.String(), Owner: d.String(), RetryAfterMS: d.Int64()}
}

// PutUpdate appends one session update.
func PutUpdate(e *Enc, u api.Update) {
	e.Int(u.Seq)
	e.Bool(u.Admitted)
	e.Bool(u.Parked)
	e.Int(u.TeamSize)
	PutDeltaStats(e, u.Stats)
	e.Int64(u.ElapsedNS)
	PutError(e, u.Error)
}

// GetUpdate reads one session update.
func GetUpdate(d *Dec) api.Update {
	return api.Update{
		Seq:       d.Int(),
		Admitted:  d.Bool(),
		Parked:    d.Bool(),
		TeamSize:  d.Int(),
		Stats:     GetDeltaStats(d),
		ElapsedNS: d.Int64(),
		Error:     GetError(d),
	}
}

// PutTotals appends session totals.
func PutTotals(e *Enc, t api.Totals) {
	e.Int(t.Events)
	e.Int(t.Joins)
	e.Int(t.Leaves)
	e.Int(t.Rejected)
	e.Int(t.Parked)
	e.Int(t.Dirty)
	e.Int(t.Reused)
	e.Int64(t.DBQueries)
}

// GetTotals reads session totals.
func GetTotals(d *Dec) api.Totals {
	return api.Totals{
		Events:    d.Int(),
		Joins:     d.Int(),
		Leaves:    d.Int(),
		Rejected:  d.Int(),
		Parked:    d.Int(),
		Dirty:     d.Int(),
		Reused:    d.Int(),
		DBQueries: d.Int64(),
	}
}

// PutSessionStatus appends a full session status.
func PutSessionStatus(e *Enc, st api.SessionStatus) {
	e.String(st.ID)
	e.Int(st.Live)
	e.Int(st.Parked)
	PutQueries(e, st.Queries)
	PutResult(e, st.Result)
	PutTotals(e, st.Totals)
	PutTrace(e, st.Trace)
	e.Int(st.TeamSize)
}

// GetSessionStatus reads a full session status.
func GetSessionStatus(d *Dec) api.SessionStatus {
	return api.SessionStatus{
		ID:       d.String(),
		Live:     d.Int(),
		Parked:   d.Int(),
		Queries:  GetQueries(d),
		Result:   GetResult(d),
		Totals:   GetTotals(d),
		Trace:    GetTrace(d),
		TeamSize: d.Int(),
	}
}

// PutHealth appends a health report.
func PutHealth(e *Enc, h api.Health) {
	e.String(h.Status)
	e.Int(h.Sessions)
	e.Float(h.UptimeS)
	e.Bool(h.Degraded)
	e.String(h.DegradedCause)
	if h.Cluster == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.String(h.Cluster.Self)
	e.Int(h.Cluster.Nodes)
	down := omitEmpty(h.Cluster.PeersDown)
	n := putSlice(e, down)
	for i := 0; i < n; i++ {
		e.String(down[i])
	}
}

// GetHealth reads a health report.
func GetHealth(d *Dec) api.Health {
	h := api.Health{
		Status:        d.String(),
		Sessions:      d.Int(),
		UptimeS:       d.Float(),
		Degraded:      d.Bool(),
		DegradedCause: d.String(),
	}
	if !d.Bool() {
		return h
	}
	ch := &api.ClusterHealth{Self: d.String(), Nodes: d.Int()}
	if n := getSlice(d, 1); n > 0 {
		ch.PeersDown = make([]string, n)
		for i := range ch.PeersDown {
			ch.PeersDown[i] = d.String()
		}
	}
	h.Cluster = ch
	return h
}

// PutClusterStatus appends a cluster-status report.
func PutClusterStatus(e *Enc, cs api.ClusterStatus) {
	e.Bool(cs.Enabled)
	e.String(cs.Self)
	e.Int(cs.VirtualNodes)
	e.String(cs.Version)
	nodes := omitEmpty(cs.Nodes)
	n := putSlice(e, nodes)
	for i := 0; i < n; i++ {
		e.String(nodes[i].Name)
		e.String(nodes[i].Addr)
		e.Bool(nodes[i].Self)
		e.Bool(nodes[i].Connected)
	}
	rels := omitEmpty(cs.Relations)
	n = putSlice(e, rels)
	for i := 0; i < n; i++ {
		e.String(rels[i].Relation)
		e.Int(rels[i].Column)
	}
}

// GetClusterStatus reads a cluster-status report.
func GetClusterStatus(d *Dec) api.ClusterStatus {
	cs := api.ClusterStatus{
		Enabled:      d.Bool(),
		Self:         d.String(),
		VirtualNodes: d.Int(),
		Version:      d.String(),
	}
	if n := getSlice(d, 4); n > 0 {
		cs.Nodes = make([]api.ClusterNode, n)
		for i := range cs.Nodes {
			cs.Nodes[i] = api.ClusterNode{
				Name:      d.String(),
				Addr:      d.String(),
				Self:      d.Bool(),
				Connected: d.Bool(),
			}
		}
	}
	if n := getSlice(d, 2); n > 0 {
		cs.Relations = make([]api.RelationPlacement, n)
		for i := range cs.Relations {
			cs.Relations[i] = api.RelationPlacement{Relation: d.String(), Column: d.Int()}
		}
	}
	return cs
}

// PutResponses appends a coordinate batch's responses.
func PutResponses(e *Enc, rs []api.Response) {
	n := putSlice(e, rs)
	for i := 0; i < n; i++ {
		e.String(rs[i].ID)
		PutResult(e, rs[i].Result)
		PutError(e, rs[i].Error)
	}
}

// GetResponses reads a coordinate batch's responses.
func GetResponses(d *Dec) []api.Response {
	n := getSlice(d, 3)
	if n < 0 {
		return nil
	}
	rs := make([]api.Response, n)
	for i := range rs {
		rs[i] = api.Response{ID: d.String(), Result: GetResult(d), Error: GetError(d)}
	}
	return rs
}

// PutRequests appends a coordinate batch's requests.
func PutRequests(e *Enc, rs []api.Request) {
	n := putSlice(e, rs)
	for i := 0; i < n; i++ {
		e.String(rs[i].ID)
		PutQueries(e, rs[i].Queries)
	}
}

func getRequests(d *Dec, s *batchSlab) []api.Request {
	n := getSlice(d, 2)
	if n < 0 {
		return nil
	}
	rs := cut(s, func(s *batchSlab) *[]api.Request { return &s.reqs }, n)
	for i := range rs {
		rs[i] = api.Request{ID: d.String(), Queries: getQueries(d, s)}
	}
	return rs
}
