package eq

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a constant from the database domain. Integers are represented
// by their decimal rendering; this keeps the engine simple without losing
// any behaviour the paper relies on (all comparisons are equality).
type Value string

// TermKind discriminates variables from constants.
type TermKind uint8

const (
	// TermConst marks a Term carrying a constant Value.
	TermConst TermKind = iota
	// TermVar marks a Term carrying a variable name.
	TermVar
)

// Term is an argument of an atom: either a constant or a variable.
type Term struct {
	Kind TermKind
	Name string // variable name when Kind==TermVar, constant value otherwise
}

// C builds a constant term.
func C(v Value) Term { return Term{Kind: TermConst, Name: string(v)} }

// V builds a variable term.
func V(name string) Term { return Term{Kind: TermVar, Name: name} }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Kind == TermVar }

// Const returns the constant value of t; it must not be a variable.
func (t Term) Const() Value {
	if t.IsVar() {
		panic("eq: Const called on variable " + t.Name)
	}
	return Value(t.Name)
}

// String renders the term: variables as-is, constants quoted when they
// could be mistaken for a variable.
func (t Term) String() string {
	if t.IsVar() {
		return t.Name
	}
	if needsQuote(t.Name) {
		return "'" + t.Name + "'"
	}
	return t.Name
}

func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	c := s[0]
	if c >= 'a' && c <= 'z' {
		return true // would lex as a variable
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return true
		}
	}
	return false
}

// Atom is a relational atom R(t1, ..., tn).
type Atom struct {
	Rel  string `json:"rel"`
	Args []Term `json:"args"`
}

// NewAtom builds an atom over relation rel with the given arguments.
func NewAtom(rel string, args ...Term) Atom {
	return Atom{Rel: rel, Args: args}
}

// String renders the atom in the usual R(a, b) form.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Rel: a.Rel, Args: args}
}

// Equal reports syntactic equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Query is an entangled query {Post} Head :- Body.
type Query struct {
	ID   string `json:"id,omitempty"`   // stable identifier, e.g. the submitting user's name
	Post []Atom `json:"post,omitempty"` // postcondition atoms (answer relations)
	Head []Atom `json:"head"`           // head atoms (answer relations)
	Body []Atom `json:"body,omitempty"` // body atoms (database relations); may be empty
}

// Clone returns a deep copy of q.
func (q Query) Clone() Query {
	cp := Query{ID: q.ID}
	cp.Post = cloneAtoms(q.Post)
	cp.Head = cloneAtoms(q.Head)
	cp.Body = cloneAtoms(q.Body)
	return cp
}

func cloneAtoms(as []Atom) []Atom {
	if as == nil {
		return nil
	}
	out := make([]Atom, len(as))
	for i, a := range as {
		out[i] = a.Clone()
	}
	return out
}

// Vars returns the query's variable names, sorted and deduplicated.
func (q Query) Vars() []string {
	seen := map[string]bool{}
	var out []string
	collect := func(as []Atom) {
		for _, a := range as {
			for _, t := range a.Args {
				if t.IsVar() && !seen[t.Name] {
					seen[t.Name] = true
					out = append(out, t.Name)
				}
			}
		}
	}
	collect(q.Post)
	collect(q.Head)
	collect(q.Body)
	sort.Strings(out)
	return out
}

// Rename returns a copy of q with every variable name prefixed, so that
// variable namespaces of distinct queries never collide. Coordination
// algorithms rename each query before unifying across queries.
func (q Query) Rename(prefix string) Query {
	cp := q.Clone()
	ren := func(as []Atom) {
		for i := range as {
			for j := range as[i].Args {
				if as[i].Args[j].IsVar() {
					as[i].Args[j].Name = prefix + as[i].Args[j].Name
				}
			}
		}
	}
	ren(cp.Post)
	ren(cp.Head)
	ren(cp.Body)
	return cp
}

// String renders the query as "{P1, P2} H1, H2 :- B1, B2".
func (q Query) String() string {
	body := "true"
	if len(q.Body) > 0 {
		body = JoinAtoms(q.Body)
	}
	return "{" + JoinAtoms(q.Post) + "} " + JoinAtoms(q.Head) + " :- " + body
}

// JoinAtoms renders an atom list as "A1, A2", the way a query's body
// reads.
func JoinAtoms(as []Atom) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// Validate checks the syntactic well-formedness conditions of entangled
// queries against a database schema given as relation name -> arity:
// every body relation must be in the schema, and no answer relation may
// collide with a schema relation. It also checks consistent arities for
// answer relations across the query set.
func Validate(qs []Query, schema map[string]int) error {
	answerArity := map[string]int{}
	for _, q := range qs {
		for _, a := range q.Body {
			ar, ok := schema[a.Rel]
			if !ok {
				return fmt.Errorf("query %s: body relation %s not in database schema", q.ID, a.Rel)
			}
			if ar != len(a.Args) {
				return fmt.Errorf("query %s: body atom %s has arity %d, schema says %d", q.ID, a, len(a.Args), ar)
			}
		}
		for _, a := range append(append([]Atom{}, q.Post...), q.Head...) {
			if _, ok := schema[a.Rel]; ok {
				return fmt.Errorf("query %s: answer relation %s collides with database schema", q.ID, a.Rel)
			}
			if ar, ok := answerArity[a.Rel]; ok {
				if ar != len(a.Args) {
					return fmt.Errorf("query %s: answer relation %s used with arities %d and %d", q.ID, a.Rel, ar, len(a.Args))
				}
			} else {
				answerArity[a.Rel] = len(a.Args)
			}
		}
	}
	return nil
}
