package consistent

import (
	"fmt"
	"sort"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// oracleCoordinate is the reference the kernel is compared against: the
// algorithm as §5 states it, on maps and fresh slices, values told apart
// by comparing tuples pairwise, and a cleaning phase that re-sweeps
// every member until a full pass removes nobody. It asks for an option
// list per query and grounds by scanning the data relation, and bills
// what §5 needs asked, each step's questions being one batch: one query
// for step 1, and one per relation step 2 reads a friend list from.
func oracleCoordinate(sch Schema, qs []Query, inst *db.Instance, opts Options) (*Result, error) {
	if err := sch.Validate(inst); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, nil
	}
	var dbq int64

	// Step 1: option lists V(q), billed as one batch.
	options := make([][]db.Tuple, len(qs))
	dbq++
	for i, q := range qs {
		where, err := oracleWhere(sch, q)
		if err != nil {
			return nil, err
		}
		if options[i], err = projected(inst, sch.Table, sch.CoordCols, where); err != nil {
			return nil, err
		}
	}
	if opts.Trace != nil {
		opts.Trace.OptionCounts = make([]int, len(qs))
		for i := range qs {
			opts.Trace.OptionCounts[i] = len(options[i])
		}
	}

	// Step 2: pruned coordination graph.
	userIdx := map[eq.Value][]int{}
	for i, q := range qs {
		userIdx[q.User] = append(userIdx[q.User], i)
	}
	alive := make([]bool, len(qs))
	for i := range qs {
		alive[i] = len(options[i]) > 0
	}
	friendsOf := make([]map[string][]int, len(qs))
	asked := map[string]bool{} // the relations billed, one batch each
	for i, q := range qs {
		if !alive[i] {
			continue
		}
		friendsOf[i] = map[string][]int{}
		for _, p := range q.Partners {
			if !p.AnyFriend {
				continue
			}
			rel := oracleSlotRel(sch, p)
			if _, done := friendsOf[i][rel]; done {
				continue
			}
			rows, err := projected(inst, rel, []int{1}, map[int]eq.Value{0: q.User})
			if err != nil {
				return nil, err
			}
			if !asked[rel] {
				asked[rel] = true
				dbq++
			}
			list := []int{}
			for _, row := range rows {
				for _, j := range userIdx[row[0]] {
					if j != i && alive[j] {
						list = append(list, j)
					}
				}
			}
			friendsOf[i][rel] = list
		}
	}

	// Step 3: the global options list V(Q).
	var vQ []db.Tuple
	for i := range qs {
		for _, v := range options[i] {
			if !oracleHas(vQ, v) {
				vQ = append(vQ, v)
			}
		}
	}

	// Step 4: per value, restrict and clean.
	var cands []Candidate
	for _, v := range vQ {
		in := make([]bool, len(qs))
		var members []int
		for i := range qs {
			if oracleHas(options[i], v) {
				in[i] = true
				members = append(members, i)
			}
		}
		surviving := oracleSweep(sch, qs, members, in, userIdx, friendsOf)
		if opts.Trace != nil {
			opts.Trace.Values = append(opts.Trace.Values, ValueEvent{
				Value:     append([]eq.Value(nil), v...),
				Initial:   append([]int(nil), members...),
				Survivors: append([]int(nil), surviving...),
			})
		}
		if len(surviving) > 0 {
			cands = append(cands, Candidate{Value: append(db.Tuple(nil), v...), Members: surviving})
		}
	}
	if len(cands) == 0 {
		return nil, nil
	}
	win := cands[maxMembers(cands)]

	// Step 5: ground each member to the first row, in row order, that
	// matches its where clause and the winning value.
	s, _ := inst.Relation(sch.Table)
	keys := map[int]eq.Value{}
	for _, i := range win.Members {
		where, err := oracleWhere(sch, qs[i])
		if err != nil {
			return nil, err
		}
		for j, c := range sch.CoordCols {
			where[c] = win.Value[j]
		}
	rows:
		for r := 0; r < s.Len(); r++ {
			t := s.Tuple(r)
			for c, v := range where {
				if t[c] != v {
					continue rows
				}
			}
			keys[i] = t[sch.KeyCol]
			break
		}
		if _, ok := keys[i]; !ok {
			return nil, fmt.Errorf("consistent: oracle: member %d has no tuple for value %v", i, win.Value)
		}
	}
	return &Result{
		Value:      win.Value,
		Members:    win.Members,
		Keys:       keys,
		Candidates: cands,
		DBQueries:  dbq,
	}, nil
}

// projected collects the cols-projections of the rows Project yields,
// copied out, so nothing the oracle holds is the database's.
func projected(inst *db.Instance, rel string, cols []int, where map[int]eq.Value) ([]db.Tuple, error) {
	var out []db.Tuple
	err := inst.Project(rel, cols, 1, func(int) map[int]eq.Value { return where }, func(_ int, row db.Tuple) {
		p := make(db.Tuple, len(cols))
		for j, c := range cols {
			p[j] = row[c]
		}
		out = append(out, p)
	})
	return out, err
}

func oracleWhere(sch Schema, q Query) (map[int]eq.Value, error) {
	if len(q.Coord) != len(sch.CoordCols) || len(q.Own) != len(sch.OwnCols) {
		return nil, fmt.Errorf("consistent: query by %s does not fit the schema", q.User)
	}
	where := map[int]eq.Value{}
	for j, p := range q.Coord {
		if !p.Any {
			where[sch.CoordCols[j]] = p.Val
		}
	}
	for j, p := range q.Own {
		if !p.Any {
			where[sch.OwnCols[j]] = p.Val
		}
	}
	return where, nil
}

func oracleSlotRel(sch Schema, p Partner) string {
	if p.Rel != "" {
		return p.Rel
	}
	return sch.Friends
}

// oracleHas reports whether list holds a tuple equal to v.
func oracleHas(list []db.Tuple, v db.Tuple) bool {
next:
	for _, t := range list {
		for j := range v {
			if t[j] != v[j] {
				continue next
			}
		}
		return true
	}
	return false
}

// oracleHolds checks query i's coordination requirements against the
// current membership: every constant partner must be present, and the
// friend slots must be fillable by distinct present friends.
func oracleHolds(sch Schema, qs []Query, i int, in []bool, userIdx map[eq.Value][]int, friendsOf []map[string][]int) bool {
	var slots [][]eq.Value // per friend slot: candidate partner users
	for _, p := range qs[i].Partners {
		if p.AnyFriend {
			var cands []eq.Value
			seen := map[eq.Value]bool{}
			for _, j := range friendsOf[i][oracleSlotRel(sch, p)] {
				if in[j] && !seen[qs[j].User] {
					seen[qs[j].User] = true
					cands = append(cands, qs[j].User)
				}
			}
			if len(cands) == 0 {
				return false
			}
			slots = append(slots, cands)
			continue
		}
		found := false
		for _, j := range userIdx[p.Name] {
			if in[j] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return matchSlots(slots)
}

// matchSlots decides whether every slot can be assigned a distinct
// candidate (a system of distinct representatives), via augmenting-path
// bipartite matching.
func matchSlots(slots [][]eq.Value) bool {
	if len(slots) <= 1 {
		return true // emptiness per slot was already checked
	}
	owner := map[eq.Value]int{} // candidate -> slot currently using it
	var try func(s int, visited map[eq.Value]bool) bool
	try = func(s int, visited map[eq.Value]bool) bool {
		for _, c := range slots[s] {
			if visited[c] {
				continue
			}
			visited[c] = true
			if o, taken := owner[c]; !taken {
				owner[c] = s
				return true
			} else if try(o, visited) {
				owner[c] = s
				return true
			}
		}
		return false
	}
	for s := range slots {
		if !try(s, map[eq.Value]bool{}) {
			return false
		}
	}
	return true
}

// oracleSweep is the naive fixpoint: full passes until no removal.
func oracleSweep(sch Schema, qs []Query, members []int, in []bool, userIdx map[eq.Value][]int, friendsOf []map[string][]int) []int {
	for {
		changed := false
		for _, i := range members {
			if in[i] && !oracleHolds(sch, qs, i, in, userIdx, friendsOf) {
				in[i] = false
				changed = true
			}
		}
		if !changed {
			var out []int
			for _, i := range members {
				if in[i] {
					out = append(out, i)
				}
			}
			sort.Ints(out)
			return out
		}
	}
}
