package fault

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Op names one interceptable operation kind.
type Op uint8

const (
	// Filesystem operations (FS / File).
	OpOpen Op = iota
	OpRead
	OpWrite
	OpSync
	OpRename
	OpRemove
	OpTruncate
	OpMkdir
	OpReadDir
	OpSyncDir
	// Network operations (Listener / Conn).
	OpAccept
	OpConnRead
	OpConnWrite
	// Query operations (Store).
	OpQuery
)

var opNames = [...]string{
	OpOpen: "open", OpRead: "read", OpWrite: "write", OpSync: "sync",
	OpRename: "rename", OpRemove: "remove", OpTruncate: "truncate",
	OpMkdir: "mkdir", OpReadDir: "readdir", OpSyncDir: "syncdir",
	OpAccept: "accept", OpConnRead: "conn-read", OpConnWrite: "conn-write",
	OpQuery: "query",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// ErrInjected is wrapped by every error the wrappers inject, so callers
// can tell a scheduled fault from a real one with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Fault is one decided outcome for an operation.
type Fault struct {
	// Err fails the operation. The wrappers return it wrapped with
	// ErrInjected, so errors.Is matches both the rule's error and the
	// package sentinel.
	Err error
	// Torn, with Err set on a write op, writes only the first Torn bytes
	// before failing — a torn write for replay truncation to find.
	Torn int
	// Corrupt, on a conn op, flips one byte instead of failing — the
	// undetected-by-TCP corruption the CRC frames exist to catch.
	Corrupt bool
	// Delay stalls the operation before it proceeds (or fails).
	Delay time.Duration
}

// Rule matches operations and decides their fault. Rules are evaluated
// in order; the first rule that matches AND fires wins.
type Rule struct {
	// Op is the operation kind the rule intercepts.
	Op Op
	// Path restricts the rule to some descriptors ("" matches every
	// one). File ops use the file path and conn ops the remote address,
	// and match any descriptor containing Path; queries use the method's
	// descriptor and match only the one equal to Path, because the
	// descriptors nest ("solve" is in "solveall" and "solveunder").
	Path string
	// After skips the first After matching operations.
	After int
	// Count fires at most Count times after the skip (0 = unlimited).
	Count int
	// Prob additionally gates each firing on a seeded coin flip in
	// (0,1]; 0 means always fire. Probabilistic firings still consume
	// Count.
	Prob float64
	// Fault is the outcome injected when the rule fires.
	Fault Fault
}

// Injector decides faults from an ordered rule list. Decisions are
// deterministic given the operation sequence: counters advance per
// matching op and the probability gate draws from a seeded generator.
// Safe for concurrent use; a nil *Injector never injects.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []*ruleState
	armed  bool
	ops    int64
	faults int64
}

type ruleState struct {
	Rule
	seen  int
	fired int
}

// NewInjector builds an armed injector with a seeded probability source.
func NewInjector(seed int64, rules ...Rule) *Injector {
	i := &Injector{rng: rand.New(rand.NewSource(seed)), armed: true}
	i.Add(rules...)
	return i
}

// Add appends rules, keeping existing rule counters.
func (i *Injector) Add(rules ...Rule) {
	if i == nil {
		return
	}
	i.mu.Lock()
	for _, r := range rules {
		rs := &ruleState{Rule: r}
		i.rules = append(i.rules, rs)
	}
	i.mu.Unlock()
}

// Arm enables injection (the NewInjector default).
func (i *Injector) Arm() { i.setArmed(true) }

// Disarm stops all injection; counters and rules are preserved.
func (i *Injector) Disarm() { i.setArmed(false) }

func (i *Injector) setArmed(v bool) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.armed = v
	i.mu.Unlock()
}

// Stats reports operations seen and faults injected since creation.
func (i *Injector) Stats() (ops, faults int64) {
	if i == nil {
		return 0, 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops, i.faults
}

// Exhausted reports whether every Count-bounded rule has fired its full
// budget — after which the schedule injects nothing more and recovery
// probes are guaranteed to succeed.
func (i *Injector) Exhausted() bool {
	if i == nil {
		return true
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, r := range i.rules {
		if r.Count == 0 || r.fired < r.Count {
			return false
		}
	}
	return true
}

// matches reports whether the rule's Path admits the descriptor path.
func (r *Rule) matches(path string) bool {
	if r.Path == "" {
		return true
	}
	if r.Op == OpQuery {
		return path == r.Path
	}
	return strings.Contains(path, r.Path)
}

// Decide returns the fault (possibly none) for one operation on the
// descriptor. Exported so custom wrappers outside this package can
// share a schedule.
func (i *Injector) Decide(op Op, path string) Fault {
	if i == nil {
		return Fault{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ops++
	if !i.armed {
		return Fault{}
	}
	for _, r := range i.rules {
		if r.Op != op || !r.matches(path) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && i.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		i.faults++
		return r.Fault
	}
	return Fault{}
}
