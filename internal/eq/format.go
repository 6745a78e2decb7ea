package eq

import "strings"

// Format renders the query in the textual file format accepted by Parse,
// so Format and Parse are mutually inverse (up to whitespace):
//
//	query q1 {
//	  post: R(Chris, x)
//	  head: R(Gwyneth, x)
//	  body: Flights(x, Zurich)
//	}
func Format(q Query) string {
	var sb strings.Builder
	sb.WriteString("query ")
	if q.ID == "" {
		sb.WriteString("q")
	} else {
		sb.WriteString(q.ID)
	}
	sb.WriteString(" {\n")
	section := func(name string, as []Atom) {
		if len(as) == 0 {
			return
		}
		sb.WriteString("  ")
		sb.WriteString(name)
		sb.WriteString(": ")
		sb.WriteString(JoinAtoms(as))
		sb.WriteString("\n")
	}
	section("post", q.Post)
	section("head", q.Head)
	section("body", q.Body)
	sb.WriteString("}\n")
	return sb.String()
}

// FormatSet renders a whole query set in the file format.
func FormatSet(qs []Query) string {
	var sb strings.Builder
	for i, q := range qs {
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(Format(q))
	}
	return sb.String()
}
