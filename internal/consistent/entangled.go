package consistent

import (
	"fmt"
	"strconv"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// ToEntangled translates an A-consistent query into the general
// entangled-query form of §5:
//
//	{R(y1, f1), R(y2, c2), ...}
//	R(x, User) :- S(x, ax1, ..., axd), F(User, f1), S(yi, ai1, ..., aid), ...
//
// Coordination attributes share one term between the user and every
// partner (the same constant, or a shared variable); non-coordination
// attributes get fresh distinct variables for partners (and a constant
// or fresh variable for the user), exactly matching Definitions 7-9.
// The translation exists to interoperate with the generic algorithms of
// package coord and to test Proposition 1.
func ToEntangled(sch Schema, q Query, inst *db.Instance) (eq.Query, error) {
	s, ok := inst.Relation(sch.Table)
	if !ok {
		return eq.Query{}, fmt.Errorf("consistent: relation %s not in instance", sch.Table)
	}
	if err := checkPrefs(sch, q); err != nil {
		return eq.Query{}, err
	}
	d := s.Arity()

	// Shared coordination terms: one per coordination attribute.
	coordTerm := make(map[int]eq.Term)
	for j, c := range sch.CoordCols {
		p := q.Coord[j]
		if p.Any {
			coordTerm[c] = eq.V("a" + strconv.Itoa(j))
		} else {
			coordTerm[c] = eq.C(p.Val)
		}
	}
	ownPref := make(map[int]Pref)
	for j, c := range sch.OwnCols {
		ownPref[c] = q.Own[j]
	}

	fresh := 0
	nextVar := func(stem string) eq.Term {
		fresh++
		return eq.V(stem + strconv.Itoa(fresh))
	}

	// The user's own tuple atom S(x, ...).
	selfAtom := eq.Atom{Rel: sch.Table, Args: make([]eq.Term, d)}
	xKey := eq.V("x")
	for c := 0; c < d; c++ {
		if c == sch.KeyCol {
			selfAtom.Args[c] = xKey
			continue
		}
		if t, isCoord := coordTerm[c]; isCoord {
			selfAtom.Args[c] = t
			continue
		}
		if p, isOwn := ownPref[c]; isOwn && !p.Any {
			selfAtom.Args[c] = eq.C(p.Val)
		} else {
			selfAtom.Args[c] = nextVar("u")
		}
	}

	out := eq.Query{ID: string(q.User)}
	out.Head = []eq.Atom{eq.NewAtom("R", xKey, eq.C(q.User))}
	out.Body = []eq.Atom{selfAtom}

	for pi, p := range q.Partners {
		yi := eq.V("y" + strconv.Itoa(pi))
		partnerAtom := eq.Atom{Rel: sch.Table, Args: make([]eq.Term, d)}
		for c := 0; c < d; c++ {
			switch {
			case c == sch.KeyCol:
				partnerAtom.Args[c] = yi
			default:
				if t, isCoord := coordTerm[c]; isCoord {
					partnerAtom.Args[c] = t
				} else {
					partnerAtom.Args[c] = nextVar("w") // A-non-coordinating: fresh distinct variable
				}
			}
		}
		out.Body = append(out.Body, partnerAtom)
		if p.AnyFriend {
			fi := eq.V("f" + strconv.Itoa(pi))
			out.Post = append(out.Post, eq.NewAtom("R", yi, fi))
			out.Body = append(out.Body, eq.NewAtom(sch.Friends, eq.C(q.User), fi))
		} else {
			out.Post = append(out.Post, eq.NewAtom("R", yi, eq.C(p.Name)))
		}
	}
	return out, nil
}

// ToEntangledSet maps ToEntangled over a query set.
func ToEntangledSet(sch Schema, qs []Query, inst *db.Instance) ([]eq.Query, error) {
	out := make([]eq.Query, len(qs))
	for i, q := range qs {
		e, err := ToEntangled(sch, q, inst)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}
