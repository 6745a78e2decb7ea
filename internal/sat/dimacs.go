package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a CNF formula in the standard DIMACS format:
//
//	c a comment
//	p cnf <variables> <clauses>
//	1 -2 3 0
//	...
//
// Clauses may span lines; each is terminated by 0. The declared clause
// count is checked against the clauses actually read.
func ParseDIMACS(r io.Reader) (Formula, error) {
	var f Formula
	declared := -1
	var cur Clause
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return f, fmt.Errorf("sat: bad problem line %q", line)
			}
			nv, err1 := strconv.Atoi(fields[2])
			nc, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || nv < 0 || nc < 0 {
				return f, fmt.Errorf("sat: bad problem line %q", line)
			}
			f.NumVars = nv
			declared = nc
			continue
		}
		if declared < 0 {
			return f, fmt.Errorf("sat: clause before problem line: %q", line)
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return f, fmt.Errorf("sat: bad literal %q", tok)
			}
			if n == 0 {
				if len(cur) == 0 {
					return f, fmt.Errorf("sat: empty clause")
				}
				f.Clauses = append(f.Clauses, cur)
				cur = nil
				continue
			}
			if abs(n) > f.NumVars {
				return f, fmt.Errorf("sat: literal %d out of range (%d variables)", n, f.NumVars)
			}
			cur = append(cur, Literal(n))
		}
	}
	if err := sc.Err(); err != nil {
		return f, err
	}
	if declared < 0 {
		return f, fmt.Errorf("sat: missing problem line")
	}
	if len(cur) > 0 {
		return f, fmt.Errorf("sat: unterminated clause (missing 0)")
	}
	if len(f.Clauses) != declared {
		return f, fmt.Errorf("sat: problem line declares %d clauses, found %d", declared, len(f.Clauses))
	}
	return f, nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
