package api

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"entangled/internal/coord"
	"entangled/internal/persist"
)

// declaredCodes parses a source file and returns the value of every
// Code* string constant it declares.
func declaredCodes(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, sp := range gd.Specs {
			vs := sp.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Code") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("%s: %s is not a string literal", path, name.Name)
				}
				code, _ := strconv.Unquote(lit.Value)
				out = append(out, code)
			}
		}
	}
	return out
}

// hinted is a domain error that names an owner and a retry hint the way
// the cluster's route-moved error and admission.ThrottleError do.
type hinted struct{ cause error }

func (h hinted) Error() string                 { return "hinted: " + h.cause.Error() }
func (h hinted) Unwrap() error                 { return h.cause }
func (h hinted) OwnerNode() string             { return "n2" }
func (h hinted) RetryAfterHint() time.Duration { return 1500 * time.Microsecond }

// TestErrorContractIsTotal holds the error contract together: every
// Code* constant api and coord declare has exactly one taxonomy row,
// every row classifies its own sentinel to its own code and status and
// decodes back to it, a relayed Error passes through From untouched,
// and the table DESIGN.md prints is this one.
func TestErrorContractIsTotal(t *testing.T) {
	rows := map[string]int{}
	for _, c := range taxonomy {
		rows[c.code]++
	}
	declared := append(declaredCodes(t, "api.go"), declaredCodes(t, "../coord/wire.go")...)
	if len(declared) != len(taxonomy) {
		t.Errorf("%d codes declared, %d taxonomy rows", len(declared), len(taxonomy))
	}
	for _, code := range declared {
		if rows[code] != 1 {
			t.Errorf("code %s has %d taxonomy rows, want exactly 1", code, rows[code])
		}
	}
	if last := taxonomy[len(taxonomy)-1]; last.code != CodeInternal || last.sentinel != nil || last.retryable || last.fateKnown {
		t.Errorf("the last row %+v must be the unclassified default: internal, claiming nothing", last)
	}

	for _, c := range taxonomy {
		if c.sentinel == nil {
			if c.code != CodeBadRequest && c.code != CodeInternal {
				t.Errorf("%s: only bad_request and internal may lack a sentinel", c.code)
			}
			if Sentinel(c.code) != nil {
				t.Errorf("Sentinel(%s) = %v, want nil", c.code, Sentinel(c.code))
			}
			continue
		}
		if !errors.Is(Sentinel(c.code), c.sentinel) {
			t.Errorf("Sentinel(%s) = %v, want %v", c.code, Sentinel(c.code), c.sentinel)
		}
		// A cause wrapped the way the serving layers wrap it, carrying an
		// owner and a hint the way domain errors do.
		cause := hinted{fmt.Errorf("%w: detail", c.sentinel)}
		e := From(cause)
		want := Error{Code: c.code, Message: cause.Error(), Owner: "n2", RetryAfterMS: 2, Status: c.status}
		if *e != want {
			t.Errorf("From(%v) = %+v, want %+v", c.sentinel, *e, want)
		}
		if !errors.Is(e, c.sentinel) {
			t.Errorf("%s: the decoded error does not wrap %v", c.code, c.sentinel)
		}
		if e.Retryable() != c.retryable || e.FateKnown() != c.fateKnown || e.OwnerNode() != "n2" || e.RetryAfterHint() != 2*time.Millisecond {
			t.Errorf("%s: methods disagree with the row: %+v", c.code, e)
		}
		// Relay is verbatim: the same pointer, however it is wrapped.
		if again := From(fmt.Errorf("forwarding: %w", e)); again != e {
			t.Errorf("%s: From(From(err)) = %+v, want the same *Error", c.code, again)
		}
	}

	// Precedence is row order: the more specific code wins an error that
	// wraps two sentinels.
	for _, tc := range []struct {
		general, specific error
		code              string
	}{
		{coord.ErrUnsafe, coord.ErrUnsafeArrival, coord.CodeUnsafeArrival},
		{persist.ErrDegraded, persist.ErrIndeterminate, CodeAckIndeterminate},
	} {
		if e := From(fmt.Errorf("%w (%w)", tc.general, tc.specific)); e.Code != tc.code {
			t.Errorf("an error wrapping %v and %v classifies as %s, want %s", tc.general, tc.specific, e.Code, tc.code)
		}
	}

	// What no row's sentinel causes renders internal: 499 for a vanished
	// client, 500 otherwise. Nil stays nil; an unknown code claims nothing.
	if e := From(context.Canceled); e.Code != CodeInternal || e.Status != 499 {
		t.Errorf("From(context.Canceled) = %+v, want internal/499", e)
	}
	if e := From(errors.New("boom")); e.Code != CodeInternal || e.Status != 500 || e.Message != "boom" || e.Owner != "" || e.RetryAfterMS != 0 {
		t.Errorf("From(unclassified) = %+v, want internal/500", e)
	}
	if From(nil) != nil {
		t.Error("From(nil) != nil")
	}
	if e := (&Error{Code: "mystery", Message: "huh"}); e.Unwrap() != nil || e.Retryable() || e.FateKnown() {
		t.Errorf("unknown code %+v claims a sentinel, retryability or a known fate", e)
	}

	// DESIGN.md's "Error contract" table: the same rows, in the same
	// order, with the same status and flags.
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## Error contract\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## Error contract\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	printed := regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|[^|]*\\| (\\d+) \\| (yes|no) \\| (yes|no) \\|").FindAllStringSubmatch(section, -1)
	if len(printed) != len(taxonomy) {
		t.Fatalf("DESIGN.md prints %d rows, the taxonomy has %d", len(printed), len(taxonomy))
	}
	yes := map[bool]string{true: "yes", false: "no"}
	for i, c := range taxonomy {
		if got, want := strings.Join(printed[i][1:], " "), fmt.Sprintf("%s %d %s %s", c.code, c.status, yes[c.retryable], yes[c.fateKnown]); got != want {
			t.Errorf("DESIGN.md row %d reads %q, the taxonomy says %q", i, got, want)
		}
	}
}
