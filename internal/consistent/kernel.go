package consistent

import (
	"slices"
	"sync"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// kernel is the working state of a Coordinate call, on dense integers:
// users, relations and coordination values are interned to small ids
// once, and the coordination graph is flat lists of query indices.
// Kernels are pooled: a call truncates and refills the lists an earlier
// call grew, and releases its kernel holding none of its queries,
// instance or strings. The Result owns only what candidates cuts to size
// for it and the Keys ground builds.
type kernel struct {
	sch  Schema
	qs   []Query
	inst *db.Instance

	dbq   int64            // database queries (Project batches) this call has issued
	where map[int]eq.Value // the one where clause, refilled per question

	users   map[eq.Value]int32 // user name -> user id
	userOf  []int32            // query -> user id
	byUser  spans              // user id -> that user's queries
	named   spans              // query -> user id per named partner; -1 when that user submitted nothing
	namedBy spans              // user id -> the queries naming that user
	iota    []int32            // 0, 1, 2, ...: the offsets of one-query lists, for byUser

	rels    []string // the relations friend slots draw from; rels[0] is sch.Friends
	slotRel []int32  // per friend slot, parallel to slots.flat: index into rels
	slots   spans    // query -> friend list per friend slot (slots over one relation share a list)
	friends spans    // friend list -> the queries, with an option, of the friends it names
	owner   []int32  // friend list -> the query whose list it is
	listsOf spans    // query -> the friend lists it appears in

	// V(Q) in first-seen order, interned by hash-and-compare. Value v is
	// vals[v*w : (v+1)*w], w = len(sch.CoordCols), copied from the first
	// row Project yielded it in.
	vals    []eq.Value
	values  set        // value ids; len(values.hashes) is |V(Q)|
	prefs   set        // distinct (Coord, Own) preference vectors
	first   []int32    // preference vector id -> the first query that has it
	vecOf   []int32    // query -> its preference vector id
	byVec   spans      // preference vector id -> value ids of its V(q)
	keys    []eq.Value // parallel to byVec.flat: the key of the row each option came from
	options spans      // query -> value ids of V(q), its vector's list copied
	members spans      // value id -> queries whose option list holds it

	// Scratch of the value loop.
	in, pending []bool  // query -> is a member; is yet to be (re)examined
	queue       []int32 // ring of queries to re-examine
	head, count int
	gen         int     // stamp counter for seen and ownedAt
	seen        []int   // user id -> gen when last counted or visited
	ownedAt     []int   // user id -> epoch of the matching in which a slot took it
	ownedBy     []int32 // user id -> that slot
	epoch       int
	kept        spans   // distinct team -> its members, each team once
	teams       set     // team ids into kept, interned by hash-and-compare
	keptValue   []int32 // non-empty candidate -> its value id
	keptList    []int32 // non-empty candidate -> its team id
}

var kernels = sync.Pool{New: func() any { return &kernel{users: map[eq.Value]int32{}, where: map[int]eq.Value{}} }}

// spans is a list of lists of small integers, stored flat.
type spans struct {
	off  []int32 // list i is flat[off[i]:off[i+1]]
	flat []int32
}

func (s *spans) reset() { s.off, s.flat = append(s.off[:0], 0), s.flat[:0] }

func (s spans) at(i int32) []int32 { return s.flat[s.off[i]:s.off[i+1]] }

func (s spans) len() int { return len(s.off) - 1 }

// end closes the list being appended to flat.
func (s *spans) end() { s.off = append(s.off, int32(len(s.flat))) }

// endTo closes lists until there are n: the one being appended to, then
// empty ones.
func (s *spans) endTo(n int) {
	for s.len() < n {
		s.end()
	}
}

// invert fills out with the inverse of s: "list i names these targets"
// becomes "target t is named by these lists". It is a counting sort, so
// each target's lists come out ascending. Negative targets are skipped.
func (s spans) invert(targets int, out *spans) {
	out.off = sized(out.off, targets+1)
	for _, t := range s.flat {
		if t >= 0 {
			out.off[t+1]++
		}
	}
	for t := 0; t < targets; t++ {
		out.off[t+1] += out.off[t]
	}
	out.flat = sized(out.flat, int(out.off[targets]))
	// Fill with off[t] as target t's cursor, which leaves every offset
	// one list ahead; then shift them back.
	for i := 0; i < s.len(); i++ {
		for _, t := range s.at(int32(i)) {
			if t >= 0 {
				out.flat[out.off[t]] = int32(i)
				out.off[t]++
			}
		}
	}
	copy(out.off[1:], out.off[:targets])
	out.off[0] = 0
}

// sized returns s cleared to length n, reusing its array if long enough.
func sized[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// set is an open-addressing hash set of ids 0, 1, 2, ..., in the order
// added, of keys its caller holds. Slots hold 1+id, 0 empty, are a
// power of two long and at most half full.
type set struct {
	slots  []int32
	hashes []uint32 // id -> its key's hash
}

func (s *set) reset() { s.hashes = s.hashes[:0]; clear(s.slots) }

// add returns the id of the key hashed to h that same accepts, adding
// the next id when there is none, and whether it added.
func (s *set) add(h uint32, same func(id int32) bool) (int32, bool) {
	if 2*len(s.hashes)+2 > len(s.slots) { // grow, adding every id again in order
		old := s.hashes
		s.slots, s.hashes = make([]int32, max(64, 2*len(s.slots))), old[:0]
		for _, h := range old {
			s.add(h, nil)
		}
	}
	mask := uint32(len(s.slots) - 1)
	for at := (h ^ h>>16) & mask; ; at = (at + 1) & mask {
		if e := s.slots[at]; e == 0 {
			s.hashes = append(s.hashes, h)
			s.slots[at] = int32(len(s.hashes))
			return s.slots[at] - 1, true
		} else if same != nil && s.hashes[e-1] == h && same(e-1) {
			return e - 1, false
		}
	}
}

// load interns users, named partners and friend-slot relations into k,
// checking everything about qs that can be checked without a database
// query: preference counts against the schema, and that every relation
// a friend slot names exists and is binary.
func (k *kernel) load(sch Schema, qs []Query, inst *db.Instance) error {
	n := len(qs)
	k.sch, k.qs, k.inst, k.dbq = sch, qs, inst, 0
	k.userOf, k.rels = sized(k.userOf, n), append(k.rels[:0], sch.Friends)
	k.slotRel, k.owner = k.slotRel[:0], k.owner[:0]
	k.named.reset()
	k.slots.reset()
	for i, q := range qs {
		if err := checkPrefs(sch, q); err != nil {
			return err
		}
		u, known := k.users[q.User]
		if !known {
			u = int32(len(k.users))
			k.users[q.User] = u
		}
		k.userOf[i] = u
	}
	for _, q := range qs {
		for _, p := range q.Partners {
			if !p.AnyFriend {
				u, known := k.users[p.Name]
				if !known {
					u = -1
				}
				k.named.flat = append(k.named.flat, u)
				continue
			}
			r, err := k.relID(p)
			if err != nil {
				return err
			}
			k.slotRel = append(k.slotRel, r)
			k.slots.flat = append(k.slots.flat, -1) // its list: friendLists
		}
		k.named.end()
		k.slots.end()
	}
	for len(k.iota) <= n {
		k.iota = append(k.iota, int32(len(k.iota)))
	}
	queries := spans{off: k.iota[:n+1], flat: k.userOf} // query i -> its one user
	queries.invert(len(k.users), &k.byUser)
	k.named.invert(len(k.users), &k.namedBy)
	return nil
}

// release drops the call's queries, instance and strings, and pools k.
func (k *kernel) release() {
	clear(k.users)
	clear(k.where)
	clear(k.rels)
	clear(k.vals)
	clear(k.keys)
	k.sch, k.qs, k.inst = Schema{}, nil, nil
	kernels.Put(k)
}

// relID interns the relation friend slot p draws from, checking a
// relation the first time it is seen.
func (k *kernel) relID(p Partner) (int32, error) {
	rel := p.Rel
	if rel == "" {
		rel = k.sch.Friends
	}
	for r, name := range k.rels {
		if name == rel {
			return int32(r), nil
		}
	}
	if err := checkFriendRel(k.inst, rel); err != nil {
		return 0, err
	}
	k.rels = append(k.rels, rel)
	return int32(len(k.rels) - 1), nil
}

// vectorWhere sets k.where to the constant preferences of preference
// vector v, and returns it.
func (k *kernel) vectorWhere(v int) map[int]eq.Value {
	clear(k.where)
	q := &k.qs[k.first[v]]
	for j, p := range q.Coord {
		if !p.Any {
			k.where[k.sch.CoordCols[j]] = p.Val
		}
	}
	for j, p := range q.Own {
		if !p.Any {
			k.where[k.sch.OwnCols[j]] = p.Val
		}
	}
	return k.where
}

// optionLists computes V(q) for every query as ids into V(Q), with the
// key of the row each came from, and then each value's member list. V(q)
// depends on nothing but q's (Coord, Own) vector, so one Project batch
// asks once per distinct vector, in first-query order, which is the
// order V(Q) is interned in, and every query copies its vector's list.
func (k *kernel) optionLists() error {
	k.prefs.reset()
	k.first, k.vecOf = k.first[:0], k.vecOf[:0]
	for i := range k.qs {
		k.vecOf = append(k.vecOf, k.vector(i))
	}
	k.vals, k.keys = k.vals[:0], k.keys[:0]
	k.values.reset()
	k.byVec.reset()
	k.dbq++
	if err := k.inst.Project(k.sch.Table, k.sch.CoordCols, len(k.first), k.vectorWhere, k.option); err != nil {
		return err
	}
	k.byVec.endTo(len(k.first))
	k.options.reset()
	for _, v := range k.vecOf {
		k.options.flat = append(k.options.flat, k.byVec.at(v)...)
		k.options.end()
	}
	k.options.invert(len(k.values.hashes), &k.members)
	return nil
}

// vector returns the id of query i's preference vector, numbering
// vectors in the order their first query comes.
func (k *kernel) vector(i int) int32 {
	q := &k.qs[i]
	h := uint32(2166136261)
	for _, prefs := range [2][]Pref{q.Coord, q.Own} { // their lengths are the schema's
		for _, p := range prefs {
			h = (h ^ db.Hash(p.String())) * 16777619 // a wildcard hashes as "*" does, and compares apart
		}
	}
	id, added := k.prefs.add(h, func(id int32) bool {
		r := &k.qs[k.first[id]]
		return slices.Equal(q.Coord, r.Coord) && slices.Equal(q.Own, r.Own)
	})
	if added {
		k.first = append(k.first, int32(i))
	}
	return id
}

// option appends to vector v's list the id in V(Q) of an answer row's
// coordination columns, and the row's key, copying the columns into
// k.vals when they are new. Values are told apart by comparing them,
// never by a rendered key, so no byte a value may contain can make two
// of them one.
func (k *kernel) option(v int, row db.Tuple) {
	k.byVec.endTo(v)
	cols := k.sch.CoordCols
	h := uint32(2166136261)
	for _, c := range cols {
		h = (h ^ db.Hash(string(row[c]))) * 16777619
	}
	id, added := k.values.add(h, func(id int32) bool {
		v := k.vals[int(id)*len(cols):]
		for j, c := range cols {
			if v[j] != row[c] {
				return false
			}
		}
		return true
	})
	if added {
		for _, c := range cols {
			k.vals = append(k.vals, row[c])
		}
	}
	k.byVec.flat = append(k.byVec.flat, id)
	k.keys = append(k.keys, row[k.sch.KeyCol])
}

// alive reports whether query i has an option: the nodes of the pruned
// coordination graph.
func (k *kernel) alive(i int32) bool { return k.options.off[i+1] > k.options.off[i] }

// friendLists resolves every friend slot of every alive query to its
// friend list — one per alive query and relation, shared by that query's
// slots over the relation — and builds the reverse lists the cleaning
// phase requeues from. Lists are numbered relation by relation, query
// order within one, so one Project batch per relation asks for that
// relation's lists in order.
func (k *kernel) friendLists() error {
	k.friends.reset()
	k.owner = k.owner[:0]
	friendCol := []int{1}
	for r, rel := range k.rels {
		base := len(k.owner)
		for i := range k.qs {
			if !k.alive(int32(i)) {
				continue
			}
			asks := false
			for s := k.slots.off[i]; s < k.slots.off[i+1]; s++ {
				if k.slotRel[s] == int32(r) {
					k.slots.flat[s], asks = int32(len(k.owner)), true
				}
			}
			if asks {
				k.owner = append(k.owner, int32(i))
			}
		}
		owners := k.owner[base:]
		if len(owners) == 0 {
			continue
		}
		k.dbq++
		err := k.inst.Project(rel, friendCol, len(owners), func(l int) map[int]eq.Value {
			clear(k.where)
			k.where[0] = k.qs[owners[l]].User
			return k.where
		}, func(l int, row db.Tuple) {
			// The alive queries, other than the owner, of the user row names.
			k.friends.endTo(base + l)
			if u, known := k.users[row[1]]; known {
				for _, j := range k.byUser.at(u) {
					if j != owners[l] && k.alive(j) {
						k.friends.flat = append(k.friends.flat, j)
					}
				}
			}
		})
		if err != nil {
			return err
		}
		k.friends.endTo(len(k.owner))
	}
	k.friends.invert(len(k.qs), &k.listsOf)
	return nil
}

// candidates runs restrict-and-clean for every value of V(Q), in order,
// allocating nothing; then what the caller keeps is cut to size: one slab
// holding each distinct team once, one of the candidates' values alone,
// and the candidates, whose equal teams share one slice of the slab.
func (k *kernel) candidates(trace *Trace) []Candidate {
	n, users := len(k.qs), len(k.users)
	k.in, k.pending, k.queue = sized(k.in, n), sized(k.pending, n), sized(k.queue, n)
	k.seen, k.ownedAt, k.ownedBy = sized(k.seen, users), sized(k.ownedAt, users), sized(k.ownedBy, users)
	k.keptValue, k.keptList = k.keptValue[:0], k.keptList[:0]
	k.kept.reset()
	k.teams.reset()
	if trace != nil {
		trace.Values = make([]ValueEvent, 0, len(k.values.hashes))
	}
	w := len(k.sch.CoordCols)
	for v := range len(k.values.hashes) {
		initial := k.members.at(int32(v))
		k.clean(initial)
		start := len(k.kept.flat)
		for _, i := range initial {
			if k.in[i] {
				k.kept.flat = append(k.kept.flat, i)
				k.in[i] = false
			}
		}
		if trace != nil {
			trace.Values = append(trace.Values, ValueEvent{
				Value:     append([]eq.Value(nil), k.vals[v*w:(v+1)*w]...),
				Initial:   ints(initial),
				Survivors: ints(k.kept.flat[start:]),
			})
		}
		if len(k.kept.flat) > start {
			k.keptValue = append(k.keptValue, int32(v))
			k.keptList = append(k.keptList, k.team(start))
		}
	}
	members := ints(k.kept.flat)
	values := slices.Grow([]eq.Value(nil), len(k.keptValue)*w) // nil when w is 0: an empty Value has always been nil
	cands := make([]Candidate, len(k.keptValue))
	for c, v := range k.keptValue {
		values = append(values, k.vals[int(v)*w:int(v+1)*w]...)
		lo, hi := k.kept.off[k.keptList[c]], k.kept.off[k.keptList[c]+1]
		cands[c] = Candidate{Value: values[c*w : (c+1)*w : (c+1)*w], Members: members[lo:hi:hi]}
	}
	return cands
}

// team interns the survivors k.kept.flat[start:] as a team and returns
// its id: a team equal to one kept earlier is cut from flat and takes
// that one's id, so kept holds each distinct team once.
func (k *kernel) team(start int) int32 {
	team := k.kept.flat[start:]
	id, added := k.teams.add(teamHash(team), func(id int32) bool { return slices.Equal(team, k.kept.at(id)) })
	if added {
		k.kept.end()
	} else {
		k.kept.flat = k.kept.flat[:start]
	}
	return id
}

// teamHash is the FNV-1a-style hash of a team, one step per member.
func teamHash(team []int32) uint32 {
	h := uint32(2166136261)
	for _, i := range team {
		h = (h ^ uint32(i)) * 16777619
	}
	return h
}

// ints widens xs, nil when it is empty.
func ints(xs []int32) []int {
	if len(xs) == 0 {
		return nil
	}
	out := make([]int, len(xs))
	for x, i := range xs {
		out[x] = int(i)
	}
	return out
}

// clean restricts the graph to members and removes queries whose
// requirements fail until none does, leaving the survivors marked in
// k.in. Every member is examined once, in order; a removal requeues
// only the already-examined queries that can depend on the removed one
// — the owners of the friend lists it is on and the queries naming its
// user — so the pass costs the degrees it touches, not members × friend
// lists, and the ring stays empty when nothing is removed.
func (k *kernel) clean(members []int32) {
	for _, i := range members {
		k.in[i], k.pending[i] = true, true
	}
	k.head, k.count = 0, 0
	for _, i := range members {
		k.examine(i)
	}
	for k.count > 0 {
		i := k.queue[k.head]
		if k.head++; k.head == len(k.queue) {
			k.head = 0
		}
		k.count--
		k.examine(i)
	}
}

// examine removes member i if its requirements no longer hold, and
// queues whoever may have depended on it. A query still pending — not
// yet reached by the first pass, or already in the ring — is not queued
// again, so the ring, one place per query, cannot overflow.
func (k *kernel) examine(i int32) {
	k.pending[i] = false
	if k.holds(i) {
		return
	}
	k.in[i] = false
	for _, l := range k.listsOf.at(i) {
		k.requeue(k.owner[l])
	}
	for _, j := range k.namedBy.at(k.userOf[i]) {
		k.requeue(j)
	}
}

func (k *kernel) requeue(i int32) {
	if !k.in[i] || k.pending[i] {
		return
	}
	at := k.head + k.count
	if at >= len(k.queue) {
		at -= len(k.queue)
	}
	k.queue[at] = i
	k.count++
	k.pending[i] = true
}

// holds checks query i's coordination requirements against the current
// membership: every named partner has a query in, and the friend slots
// can be filled by distinct users with a query in. Slots over one
// relation share one list, so that is a count of distinct users; slots
// over different relations need a matching.
func (k *kernel) holds(i int32) bool {
	for _, u := range k.named.at(i) {
		if u < 0 || !k.present(u) {
			return false
		}
	}
	slots := k.slots.at(i)
	if len(slots) == 0 {
		return true
	}
	for _, l := range slots[1:] {
		if l != slots[0] {
			return k.match(slots)
		}
	}
	k.gen++
	distinct := 0
	for _, j := range k.friends.at(slots[0]) {
		if u := k.userOf[j]; k.in[j] && k.seen[u] != k.gen {
			k.seen[u] = k.gen
			if distinct++; distinct == len(slots) {
				return true
			}
		}
	}
	return false
}

// present reports whether user u has a query in.
func (k *kernel) present(u int32) bool {
	for _, j := range k.byUser.at(u) {
		if k.in[j] {
			return true
		}
	}
	return false
}

// match decides whether every slot can be given a distinct user (a
// system of distinct representatives) by augmenting-path bipartite
// matching; slot counts are tiny in practice.
func (k *kernel) match(slots []int32) bool {
	k.gen++
	k.epoch = k.gen
	for s := range slots {
		k.gen++
		if !k.augment(slots, int32(s)) {
			return false
		}
	}
	return true
}

// augment finds slot s a user: a free one, or one whose slot can move
// to another user. seen stamps the users this search has visited.
func (k *kernel) augment(slots []int32, s int32) bool {
	for _, j := range k.friends.at(slots[s]) {
		u := k.userOf[j]
		if !k.in[j] || k.seen[u] == k.gen {
			continue
		}
		k.seen[u] = k.gen
		if k.ownedAt[u] < k.epoch || k.augment(slots, k.ownedBy[u]) {
			k.ownedAt[u], k.ownedBy[u] = k.epoch, s
			return true
		}
	}
	return false
}

// ground returns the keys of value v's members with no database query:
// each is the key optionLists recorded beside option v of the member's
// preference vector, from the first row in row order with the member's
// preferences and v, as Project yields the first row of each distinct
// projection.
func (k *kernel) ground(v int32, members []int) map[int]eq.Value {
	keys := make(map[int]eq.Value, len(members))
	for _, i := range members {
		vec := k.vecOf[i]
		keys[i] = k.keys[int(k.byVec.off[vec])+slices.Index(k.byVec.at(vec), v)]
	}
	return keys
}
