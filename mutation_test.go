//go:build mutation

package entangled_test

// Mutation testing for the paper's algorithms and the serving path
// (stream, engine, server, wire). Coverage says which lines
// a test runs; a mutant says whether a test checks them. The tool makes
// one small change per site of a package's production files, compiles
// it into that package's tests through go test -overlay (the checkout is
// never written) and counts the mutants some test fails on.
//
// One package a run; all nine take hours on 2 vCPU, so this is never a
// CI step (only TestMutationToolSelfCheck is):
//
//	go test -tags mutation -run 'TestMutation$' -timeout 0 -v -mutation.pkg internal/unify .
//
// Each run builds into a Go build cache of its own, removed when the run
// ends, and stops on a build that fails for a reason other than the
// mutant (a full disk among them) rather than score it.
//
// A failing run kills its mutant only when the test it names fails again
// alone (or, naming none, the run fails again): a socket or timer test
// that a loaded host fails once kills nothing.
//
// -mutation.func narrows the sites to functions matching a regexp,
// -mutation.run runs only the tests matching a pattern (and not
// TestLattice), of the package -mutation.testpkg names if it is set, and
// -mutation.only runs only the mutants whose ids a file lists, one a
// line, as the run prints them.
//
// testdata/mutation/equivalent.txt names the survivors no test can kill,
// one a line: the id as the run prints it, then why no answer, error or
// bound depends on the change. The score counts them apart, and a run
// fails on a listed id of its package that no site has any more or that
// the run kills.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	mutationPkg  = flag.String("mutation.pkg", "", "package directory to mutate, e.g. internal/unify")
	mutationFunc = flag.String("mutation.func", "", "mutate only sites in functions whose name (Recv.Name) matches this regexp")
	mutationRun  = flag.String("mutation.run", "", "run only the tests matching this pattern, and not TestLattice")
	mutationTest = flag.String("mutation.testpkg", "", "with -mutation.run, the package whose tests run (default -mutation.pkg)")
	mutationOnly = flag.String("mutation.only", "", "file of mutant ids, one a line: run only those")
)

// mutationFiles names the production files of each package the tool
// mutates; nil means every non-test file.
var mutationFiles = map[string][]string{
	"internal/coord":      nil,
	"internal/consistent": nil,
	"internal/unify":      nil,
	"internal/graph":      nil,
	"internal/db":         {"plan.go", "exec.go", "binding.go", "project.go"},
	"internal/stream":     nil,
	"internal/engine":     nil,
	"internal/server":     nil,
	"internal/wire":       nil,
}

// A mutant is one change at one site: the bytes [start, end) of file
// replaced by repl.
type mutant struct {
	file       string // relative to the module root
	line, col  int
	fn         string // enclosing function, Recv.Name
	op         string // cmp, logic, if-true, if-false, delete or int
	from, to   string // the expression or statement, before and after, for the report
	start, end int
	repl       string
	id         string
}

// Outcomes of a mutant.
const (
	killed    = "killed"
	survived  = "survived"
	uncompile = "uncompiled"
)

// mutants returns the sites of one file, in source order, each with an
// id that names its function and text rather than its line, so that it
// survives a deletion elsewhere in the file.
func mutants(file string, src []byte) ([]mutant, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, 0)
	if err != nil {
		return nil, err
	}
	text := func(n ast.Node) string {
		return string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
	}
	var out []mutant
	add := func(fn, op string, at token.Pos, whole ast.Node, start, end token.Pos, repl string) {
		p := fset.Position(at)
		m := mutant{file: file, line: p.Line, col: p.Column, fn: fn, op: op,
			start: fset.Position(start).Offset, end: fset.Position(end).Offset, repl: repl}
		m.from = text(whole)
		w0 := fset.Position(whole.Pos()).Offset
		m.to = m.from[:m.start-w0] + repl + m.from[m.end-w0:]
		out = append(out, m)
	}
	flip := map[token.Token]token.Token{
		token.EQL: token.NEQ, token.NEQ: token.EQL, token.LSS: token.GEQ, token.GEQ: token.LSS,
		token.GTR: token.LEQ, token.LEQ: token.GTR, token.LAND: token.LOR, token.LOR: token.LAND,
	}
	for _, d := range f.Decls {
		fn := ""
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
			if fd.Recv != nil {
				r := fd.Recv.List[0].Type
				if s, ok := r.(*ast.StarExpr); ok {
					r = s.X
				}
				if ix, ok := r.(*ast.IndexExpr); ok {
					r = ix.X
				}
				if id, ok := r.(*ast.Ident); ok {
					fn = id.Name + "." + fn
				}
			}
		}
		arrayLens := map[ast.Expr]bool{}
		var path []ast.Node // n's ancestors, for an int's context
		ast.Inspect(d, func(n ast.Node) bool {
			if n == nil {
				path = path[:len(path)-1]
				return true
			}
			path = append(path, n)
			switch n := n.(type) {
			case *ast.ArrayType:
				arrayLens[n.Len] = true // a shifted length is another type
			case *ast.BinaryExpr:
				if to, ok := flip[n.Op]; ok {
					op := "cmp"
					if n.Op == token.LAND || n.Op == token.LOR {
						op = "logic"
					}
					add(fn, op, n.OpPos, n, n.OpPos, n.OpPos+token.Pos(len(n.Op.String())), to.String())
				}
			case *ast.IfStmt:
				add(fn, "if-true", n.Cond.Pos(), n.Cond, n.Cond.Pos(), n.Cond.End(), "true")
				add(fn, "if-false", n.Cond.Pos(), n.Cond, n.Cond.Pos(), n.Cond.End(), "false")
			case *ast.BranchStmt:
				if n.Tok == token.BREAK || n.Tok == token.CONTINUE {
					add(fn, "delete", n.Pos(), n, n.Pos(), n.End(), "")
				}
			case *ast.ExprStmt:
				if _, ok := n.X.(*ast.CallExpr); ok {
					add(fn, "delete", n.Pos(), n, n.Pos(), n.End(), "")
				}
			case *ast.BasicLit:
				if n.Kind != token.INT || arrayLens[n] {
					break
				}
				if v, err := strconv.ParseInt(n.Value, 0, 64); err == nil && len(path) > 1 {
					// Reported in its parent: a bare 0 would name no site.
					add(fn, "int", n.Pos(), path[len(path)-2], n.Pos(), n.End(), strconv.FormatInt(v+1, 10))
				}
			}
			return true
		})
	}
	seen := map[string]int{}
	for i := range out {
		m := &out[i]
		key := fmt.Sprintf("%s %s %s: %s -> %s", m.file, m.fn, m.op, oneLine(m.from), oneLine(m.to))
		seen[key]++
		m.id = fmt.Sprintf("%s #%d", key, seen[key])
	}
	return out, nil
}

// oneLine collapses s's white space and cuts it to a readable length.
func oneLine(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 72 {
		s = s[:69] + "..."
	}
	return s
}

// mutationRunner runs one package's tests against mutants of it, one go
// test process at a time.
type mutationRunner struct {
	root    string        // module root, the go command's directory
	pkg     string        // package directory, relative to root
	tests   string        // package whose tests run
	run     string        // -run pattern for its tests; "" runs all, then TestLattice
	tmp     string        // a t.TempDir(): the mutant, its overlay and the run's GOCACHE
	limit   time.Duration // 5x the clean run of the package's tests
	lattice time.Duration // 5x the clean run of TestLattice
}

// goTest runs go test on pkg with src standing in for file, and reports
// whether it passed and whether it built, with the go command's output
// (nil when it hung).
func (r *mutationRunner) goTest(file string, src []byte, pkg, run string, limit time.Duration) (passed, built bool, out []byte, err error) {
	mf := filepath.Join(r.tmp, mutantFile)
	if err := os.WriteFile(mf, src, 0o644); err != nil {
		return false, false, nil, err
	}
	ov, _ := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(r.root, file): mf}})
	of := filepath.Join(r.tmp, "overlay.json")
	if err := os.WriteFile(of, ov, 0o644); err != nil {
		return false, false, nil, err
	}
	args := []string{"test", "-overlay", of, "-vet=off", "-count=1", "-failfast"}
	if limit > 0 {
		args = append(args, "-timeout", limit.String())
	}
	if run != "" {
		args = append(args, "-run", run)
	}
	// The test binary's -timeout counts its run alone, so a build slowed
	// by a loaded host kills nothing; the go command as a whole gets the
	// limit and as long again to build.
	ctx := context.Background()
	if limit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 2*limit)
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, "go", append(args, "./"+pkg)...)
	cmd.Dir = r.root
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(r.tmp, "gocache"))
	out, err = cmd.CombinedOutput()
	if ctx.Err() != nil {
		return false, true, nil, nil // a hang is a failure the timeout noticed
	}
	if bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")) {
		return false, false, out, buildFailure(out)
	}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return false, false, out, err
	}
	return err == nil, true, out, nil
}

// failedTest matches the first test a go test output names failing, or
// the one running when the test binary timed out.
var failedTest = regexp.MustCompile(`(?m)^\s*--- FAIL: ([^\s/]+)|running tests:\n\s+([^\s/]+)`)

// confirmed reports whether a failing run's output kills its mutant:
// again reruns the tests with a -run pattern, and the test the output
// names must fail again alone; output naming none (a crash outside any
// test, a package's goroutine gate) must fail again with the same run.
func confirmed(out []byte, run string, again func(run string) (passed bool, err error)) (bool, error) {
	if m := failedTest.FindSubmatch(out); m != nil {
		run = "^" + string(m[1]) + string(m[2]) + "$"
	}
	passed, err := again(run)
	return !passed, err
}

// mutantFile is the overlay file a mutant is written to; the go command
// names it, not the file it stands in for, in a compiler error.
const mutantFile = "mutant.go"

var mutantError = regexp.MustCompile(`(?m)(^|/)` + regexp.QuoteMeta(mutantFile) + `:\d+:\d+: `)

// buildFailure reads the output of a go test that failed to build: nil
// when it names a line of the mutant, which then does not compile, an
// error otherwise. Scored as uncompiled, a build that failed for another
// reason (a full disk, a broken toolchain) would drop a mutant from the
// score unseen.
func buildFailure(out []byte) error {
	if mutantError.Match(out) {
		return nil
	}
	return fmt.Errorf("a build failed naming no line of the mutant:\n%s", out)
}

// clean times the unmutated tests, rebuilt as a mutant's are (a comment
// appended to file defeats the build cache), and fails if they fail. The
// second of two runs is timed: the first fills the run's empty build
// cache, which a mutant finds full.
func (r *mutationRunner) clean(file string, pkg, run string) (time.Duration, error) {
	src, err := os.ReadFile(filepath.Join(r.root, file))
	if err != nil {
		return 0, err
	}
	var took time.Duration
	for i := range 2 {
		start := time.Now()
		passed, built, _, err := r.goTest(file, fmt.Appendf(src, "\n// clean run %d\n", i), pkg, run, 0)
		if err != nil {
			return 0, err
		}
		if !passed || !built {
			return 0, fmt.Errorf("%s: tests fail on the unmutated tree", pkg)
		}
		took = time.Since(start)
	}
	return 5 * took, nil
}

// outcome runs m and returns what became of it.
func (r *mutationRunner) outcome(m mutant, src []byte) (string, error) {
	mutated := slices.Concat(src[:m.start], []byte(m.repl), src[m.end:])
	mutated, err := format.Source(mutated)
	if err != nil {
		return uncompile, nil
	}
	passed, built, out, err := r.goTest(m.file, mutated, r.tests, r.run, r.limit)
	switch {
	case err != nil:
		return "", err
	case !built:
		return uncompile, nil
	case !passed && out == nil:
		return killed, nil
	case !passed:
		kill, err := confirmed(out, r.run, func(run string) (bool, error) {
			passed, _, _, err := r.goTest(m.file, mutated, r.tests, run, r.limit)
			return passed, err
		})
		if err != nil || kill {
			return killed, err
		}
	}
	if r.run != "" || r.tests == "internal/server" {
		return survived, nil
	}
	// TestLattice drives some cells over loopback sockets: a mutant only
	// it notices counts as killed when it fails twice, so a cell that a
	// loaded host fails once kills nothing.
	for range 2 {
		passed, _, _, err = r.goTest(m.file, mutated, "internal/server", "^TestLattice$", r.lattice)
		if err != nil {
			return "", err
		}
		if passed {
			return survived, nil
		}
	}
	return killed, nil
}

// mutationScore is one run's tally.
type mutationScore struct {
	sites, compiled, killed, equivalent int
	survivors                           []string
	ids                                 map[string]string // every site's id: the outcome of a run one, "" otherwise
}

// mutate runs every selected mutant of the runner's package, logging one
// line per mutant.
func (r *mutationRunner) mutate(t *testing.T, files []string, fn *regexp.Regexp, only map[string]bool) mutationScore {
	t.Helper()
	if files == nil {
		ents, err := os.ReadDir(filepath.Join(r.root, r.pkg))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				files = append(files, n)
			}
		}
	}
	var err error
	sc := mutationScore{ids: map[string]string{}}
	if r.limit, err = r.clean(filepath.Join(r.pkg, files[0]), r.tests, r.run); err != nil {
		t.Fatal(err)
	}
	if r.run == "" {
		if r.lattice, err = r.clean(filepath.Join(r.pkg, files[0]), "internal/server", "^TestLattice$"); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range files {
		file := filepath.Join(r.pkg, name)
		src, err := os.ReadFile(filepath.Join(r.root, file))
		if err != nil {
			t.Fatal(err)
		}
		ms, err := mutants(file, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			sc.ids[m.id] = ""
			if (fn != nil && !fn.MatchString(m.fn)) || (only != nil && !only[m.id]) {
				continue
			}
			start := time.Now()
			res, err := r.outcome(m, src)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-10s %s:%d:%d %5.1fs  %s", res, file, m.line, m.col, time.Since(start).Seconds(), m.id)
			sc.ids[m.id] = res
			sc.sites++
			switch res {
			case killed:
				sc.compiled++
				sc.killed++
			case survived:
				sc.compiled++
				sc.survivors = append(sc.survivors, m.id)
			}
		}
	}
	return sc
}

func (sc mutationScore) String() string {
	pct := 0.0
	if sc.compiled > 0 {
		pct = 100 * float64(sc.killed+sc.equivalent) / float64(sc.compiled)
	}
	return fmt.Sprintf("%d mutants, %d compiled, %d killed, %d named equivalent, %d survived (%.1f%% killed or named equivalent)",
		sc.sites, sc.compiled, sc.killed, sc.equivalent, len(sc.survivors), pct)
}

// equivalentsFile names the survivors no test can kill.
const equivalentsFile = "testdata/mutation/equivalent.txt"

var equivalentLine = regexp.MustCompile(`^(\S.*? #\d+)\s+(\S.*)$`)

// readEquivalents returns the ids src names equivalent among pkg's
// files, each with its reason. Blank lines and lines starting with #
// are skipped; any other line must be an id and a reason.
func readEquivalents(src []byte, pkg string) (map[string]string, error) {
	equiv := map[string]string{}
	for i, line := range strings.Split(string(src), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := equivalentLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("%s:%d: not a mutant id and a reason: %q", equivalentsFile, i+1, line)
		}
		if strings.HasPrefix(m[1], pkg+"/") {
			equiv[m[1]] = m[2]
		}
	}
	return equiv, nil
}

// name counts the survivors equiv lists as named equivalent. It fails
// on a listed id that no site of the run's files has, or that the run
// did not see survive; one the run did not select is left alone.
func (sc *mutationScore) name(equiv map[string]string) error {
	var errs []error
	for id := range equiv {
		res, ok := sc.ids[id]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("named equivalent, but no mutant has the id: %s", id))
		case res != "" && res != survived:
			errs = append(errs, fmt.Errorf("named equivalent, but %s: %s", res, id))
		}
	}
	sc.survivors = slices.DeleteFunc(sc.survivors, func(id string) bool {
		_, ok := equiv[id]
		if ok {
			sc.equivalent++
		}
		return ok
	})
	return errors.Join(errs...)
}

// TestMutation mutates the package -mutation.pkg names and reports each
// mutant and the package's score. It is skipped without the flag.
func TestMutation(t *testing.T) {
	if *mutationPkg == "" {
		t.Skip("no -mutation.pkg")
	}
	pkg := filepath.ToSlash(filepath.Clean(*mutationPkg))
	files, ok := mutationFiles[pkg]
	if !ok {
		t.Fatalf("-mutation.pkg %s: not one of the mutated packages", pkg)
	}
	var fn *regexp.Regexp
	if *mutationFunc != "" {
		fn = regexp.MustCompile(*mutationFunc)
	}
	var only map[string]bool
	if *mutationOnly != "" {
		f, err := os.Open(*mutationOnly)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		only = map[string]bool{}
		for s := bufio.NewScanner(f); s.Scan(); {
			if id := strings.TrimSpace(s.Text()); id != "" {
				only[id] = true
			}
		}
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r := &mutationRunner{root: root, pkg: pkg, tests: pkg, run: *mutationRun, tmp: t.TempDir()}
	if *mutationTest != "" && *mutationRun != "" {
		r.tests = filepath.ToSlash(filepath.Clean(*mutationTest))
	}
	src, err := os.ReadFile(filepath.Join(root, equivalentsFile))
	if err != nil {
		t.Fatal(err)
	}
	equiv, err := readEquivalents(src, pkg)
	if err != nil {
		t.Fatal(err)
	}
	sc := r.mutate(t, files, fn, only)
	if err := sc.name(equiv); err != nil {
		t.Error(err)
	}
	for _, id := range sc.survivors {
		t.Logf("survivor: %s", id)
	}
	t.Logf("%s: %s in %s", pkg, sc, time.Since(start).Round(time.Second))
}

// The self-check's fixture: a module of one package whose strong test
// kills every mutant that compiles and whose weak test runs the same
// code but checks one answer.
const (
	mutationFixtureMod = "module tiny\n\ngo 1.24\n"
	mutationFixture    = `package tiny

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
`
	mutationFixtureTest = `package tiny

import "testing"

func TestStrong(t *testing.T) {
	for _, c := range [][4]int{{-1, 0, 2, 0}, {0, 0, 2, 0}, {1, 0, 2, 1}, {2, 0, 2, 2}, {3, 0, 2, 2}} {
		if got := Clamp(c[0], c[1], c[2]); got != c[3] {
			t.Fatalf("Clamp(%d, %d, %d) = %d, want %d", c[0], c[1], c[2], got, c[3])
		}
	}
}

func TestWeak(t *testing.T) {
	for _, x := range []int{-1, 0, 1, 2, 3} {
		Clamp(x, 0, 2)
	}
	if Clamp(1, 0, 2) != 1 {
		t.Fatal("Clamp(1, 0, 2) != 1")
	}
}
`
)

// TestMutationToolSelfCheck runs the tool on the fixture twice: the weak
// test must leave mutants alive that the strong test kills. First, a
// build failure is the mutant's only when it names a line of the mutant.
func TestMutationToolSelfCheck(t *testing.T) {
	for _, c := range []struct {
		out        string
		uncompiled bool
	}{
		{"# tiny [tiny.test]\n../../tmp/TestMutation1/001/mutant.go:4:9: undefined: y\nFAIL\ttiny [build failed]\n", true},
		{"# tiny [tiny.test]\n/tmp/TestMutation1/001/mutant.go:7:1: syntax error: unexpected }\nFAIL\ttiny [build failed]\n", true},
		{"# tiny\nopen /tmp/TestMutation1/001/gocache/3f/3f0c-d: no space left on device\nFAIL\ttiny [build failed]\n", false},
		{"go: writing go.mod cache: mkdir /tmp/x: no space left on device\nFAIL\ttiny [setup failed]\n", false},
		{"# tiny [tiny.test]\ntiny/other.go:3:9: undefined: y\nFAIL\ttiny [build failed]\n", false},
	} {
		if err := buildFailure([]byte(c.out)); (err == nil) != c.uncompiled {
			t.Errorf("buildFailure(%q) = %v, want uncompiled %v", c.out, err, c.uncompiled)
		}
	}
	// A failing run kills only when its test fails again alone.
	for _, c := range []struct {
		out, run string
		again    bool // the rerun passes
		kill     bool
	}{
		{"--- FAIL: TestFlaky (0.01s)\n    tiny_test.go:9: dial: connection refused\nFAIL\nFAIL\ttiny\t0.02s\n", "^TestFlaky$", true, false},
		{"--- FAIL: TestReal (0.01s)\n    --- FAIL: TestReal/sub (0.00s)\nFAIL\n", "^TestReal$", false, true},
		{"panic: test timed out after 5s\n\trunning tests:\n\t\tTestHang (5s)\n", "^TestHang$", false, true},
		{"goroutines: 3 left over after the tests\nFAIL\ttiny\t5.01s\n", "^TestWeak$", false, true},
		{"goroutines: 3 left over after the tests\nFAIL\ttiny\t5.01s\n", "^TestWeak$", true, false},
	} {
		var ran []string
		kill, err := confirmed([]byte(c.out), "^TestWeak$", func(run string) (bool, error) {
			ran = append(ran, run)
			return c.again, nil
		})
		if err != nil || kill != c.kill || !slices.Equal(ran, []string{c.run}) {
			t.Errorf("confirmed(%q) = %v, %v after reruns %q, want %v after %q", c.out, kill, err, ran, c.kill, c.run)
		}
	}
	root := t.TempDir()
	for name, body := range map[string]string{"go.mod": mutationFixtureMod, "tiny/tiny.go": mutationFixture, "tiny/tiny_test.go": mutationFixtureTest} {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tmp := t.TempDir() // one build cache for both runs
	score := func(run string) mutationScore {
		r := &mutationRunner{root: root, pkg: "tiny", tests: "tiny", run: run, tmp: tmp}
		sc := r.mutate(t, nil, nil, nil)
		t.Logf("%s: %s", run, sc)
		return sc
	}
	strong, weak := score("^TestStrong$"), score("^TestWeak$")
	if strong.compiled == 0 || strong.killed != strong.compiled {
		t.Fatalf("the strong test must kill every compiled mutant: %s", strong)
	}
	if weak.compiled != strong.compiled || weak.killed >= strong.killed {
		t.Fatalf("the weak test must score lower: weak %s, strong %s", weak, strong)
	}
	// A survivor named equivalent counts apart; a named id that no site
	// has, or that the run killed, fails the run.
	killedID := ""
	for id, res := range weak.ids {
		if res == killed {
			killedID = id
		}
	}
	named := weak.survivors[0]
	list := fmt.Sprintf("# comment\n\n%s  the weak test cannot tell\ntiny/tiny.go Clamp cmp: x < lo -> x >= lo #9 gone\n%s killed\nother/x.go F delete: f() -> #1 elsewhere\n", named, killedID)
	equiv, err := readEquivalents([]byte(list), "tiny")
	if err != nil || len(equiv) != 3 || equiv[named] != "the weak test cannot tell" {
		t.Fatalf("readEquivalents: %v, %v", equiv, err)
	}
	if _, err := readEquivalents([]byte(named+"\n"), "tiny"); err == nil {
		t.Fatal("an id without a reason was read")
	}
	err = weak.name(equiv)
	if err == nil || !strings.Contains(err.Error(), "no mutant has the id: tiny/tiny.go Clamp cmp: x < lo -> x >= lo #9") ||
		!strings.Contains(err.Error(), "but killed: "+killedID) || strings.Count(err.Error(), "\n") != 1 {
		t.Fatalf("naming a gone id and a killed one: %v", err)
	}
	if weak.equivalent != 1 || slices.Contains(weak.survivors, named) || weak.compiled != weak.killed+weak.equivalent+len(weak.survivors) {
		t.Fatalf("after naming %s equivalent: %s", named, weak)
	}
}
