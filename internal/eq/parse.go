package eq

import (
	"fmt"
	"unicode"
)

// The textual query format accepted by Parse / ParseSet:
//
//	query qC {
//	  post: R(G, x1)
//	  head: R(C, x1), Q(C, x2)
//	  body: F(x1, x), H(x2, x)
//	}
//
// Tokens starting with a lowercase letter are variables; everything else
// (capitalised identifiers, numbers, 'single-quoted strings') is a
// constant. An omitted section or the keyword "true" denotes the empty
// atom list. Line comments start with '#'.

// ParseSet parses a whole query set from the textual format.
func ParseSet(src string) ([]Query, error) {
	p := &parser{toks: lex(src)}
	var out []Query
	for !p.eof() {
		q, err := p.query()
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("eq: no queries in input")
	}
	return out, nil
}

// Parse parses a single query from the textual format.
func Parse(src string) (Query, error) {
	qs, err := ParseSet(src)
	if err != nil {
		return Query{}, err
	}
	if len(qs) != 1 {
		return Query{}, fmt.Errorf("eq: expected one query, got %d", len(qs))
	}
	return qs[0], nil
}

// MustParseSet is ParseSet that panics on error; intended for examples
// and tests where the input is a literal.
func MustParseSet(src string) []Query {
	qs, err := ParseSet(src)
	if err != nil {
		panic(err)
	}
	return qs
}

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokConst         // quoted or numeric literal
	tokPunct
	tokEOF
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(src string) []token {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			for j < len(src) && src[j] != '\'' {
				j++
			}
			toks = append(toks, token{tokConst, src[i+1 : min(j, len(src))], i})
			i = j + 1
		case c == '(' || c == ')' || c == ',' || c == '{' || c == '}' || c == ':':
			// ":-" lexes as ':' '-' handled below; we only need ':' here.
			toks = append(toks, token{tokPunct, string(c), i})
			i++
		case isIdentRune(rune(c)) || (c >= '0' && c <= '9'):
			j := i
			for j < len(src) && (isIdentRune(rune(src[j])) || (src[j] >= '0' && src[j] <= '9')) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		default:
			toks = append(toks, token{tokPunct, string(c), i})
			i++
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '-'
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) eof() bool   { return p.peek().kind == tokEOF }
func (p *parser) next() token {
	t := p.peek()
	if t.kind != tokEOF { // the end is read as often as asked
		p.i++
	}
	return t
}

func (p *parser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("eq: expected %q at offset %d, got %q", text, t.pos, t.text)
	}
	return nil
}

func (p *parser) query() (Query, error) {
	var q Query
	t := p.next()
	if t.text != "query" {
		return q, fmt.Errorf("eq: expected 'query' at offset %d, got %q", t.pos, t.text)
	}
	id := p.next()
	if id.kind != tokIdent && id.kind != tokConst {
		return q, fmt.Errorf("eq: expected query identifier at offset %d", id.pos)
	}
	q.ID = id.text
	if err := p.expect("{"); err != nil {
		return q, err
	}
	for p.peek().text != "}" {
		sec := p.next()
		if err := p.expect(":"); err != nil {
			return q, err
		}
		as, err := p.atomList()
		if err != nil {
			return q, err
		}
		switch sec.text {
		case "post":
			q.Post = as
		case "head":
			q.Head = as
		case "body":
			q.Body = as
		default:
			return q, fmt.Errorf("eq: unknown section %q at offset %d", sec.text, sec.pos)
		}
	}
	if err := p.expect("}"); err != nil {
		return q, err
	}
	return q, nil
}

// atomList parses a possibly empty comma-separated atom list. The list
// ends at a section keyword, '}' or EOF. The keyword "true" denotes the
// empty list.
func (p *parser) atomList() ([]Atom, error) {
	var out []Atom
	if p.peek().text == "true" {
		p.next()
		return out, nil
	}
	for {
		t := p.peek()
		if t.kind == tokEOF || t.text == "}" || p.atSectionStart() {
			return out, nil
		}
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
		if p.peek().text == "," {
			p.next()
			continue
		}
		return out, nil
	}
}

// atSectionStart reports whether the upcoming tokens are "<name> :",
// which begins a new section inside a query block.
func (p *parser) atSectionStart() bool {
	t := p.peek()
	if t.kind != tokIdent {
		return false
	}
	switch t.text {
	case "post", "head", "body":
		return p.toks[p.i+1].text == ":"
	}
	return false
}

func (p *parser) atom() (Atom, error) {
	rel := p.next()
	if rel.kind != tokIdent {
		return Atom{}, fmt.Errorf("eq: expected relation name at offset %d, got %q", rel.pos, rel.text)
	}
	if err := p.expect("("); err != nil {
		return Atom{}, err
	}
	a := Atom{Rel: rel.text}
	for p.peek().text != ")" {
		t := p.next()
		switch {
		case t.kind == tokConst:
			a.Args = append(a.Args, C(Value(t.text)))
		case t.kind == tokIdent:
			a.Args = append(a.Args, identTerm(t.text))
		default:
			return Atom{}, fmt.Errorf("eq: unexpected token %q in atom at offset %d", t.text, t.pos)
		}
		if p.peek().text == "," {
			p.next()
		}
	}
	p.next() // consume ')'
	return a, nil
}

// identTerm classifies a bare identifier: a leading lowercase letter
// makes it a variable, anything else (capital, digit) a constant.
func identTerm(s string) Term {
	c := s[0]
	if c >= 'a' && c <= 'z' {
		return V(s)
	}
	return C(Value(s))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
