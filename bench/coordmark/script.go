package main

import (
	"context"
	"fmt"
	"math/rand"

	"entangled/internal/client"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

const (
	// conns is the number of closed-loop client connections every served
	// workload drives: the nproc of the box the benchmark was sized on.
	// It is a constant of the workload, not read from the machine, so
	// the same script runs wherever the benchmark does.
	conns = 2
	// shapeSeed fixes every randomly drawn query *shape* (graphs, which
	// bodies are unsatisfiable, tenant hardness). The -seed argument
	// chooses the values, names and rotation those shapes are
	// instantiated with, so two seeds give different inputs of
	// identical structure — and identical exact counts.
	shapeSeed = 2012
	// chainLen is the length of one backward coordination chain
	// (workload.ChainQuery), the serving shape of every session
	// workload.
	chainLen = 16
	// leavesPerCycle is how many departures one session sees per script
	// cycle: stream.DefaultCompactAfter, so slot compaction fires exactly
	// once per session per cycle and per-cycle counts repeat exactly.
	leavesPerCycle = 64
)

// env is what a workload is built from.
type env struct {
	seed    int64
	workdir string  // scratch directory of this set-up (data dirs)
	tr      *tracer // nil in an untraced run
}

func (e env) rng(salt int64) *rand.Rand { return rand.New(rand.NewSource(e.seed*1000003 + salt)) }

// worker is one closed-loop caller: it sends its script's calls one at
// a time, each after the previous one's answer, cycle after cycle.
type worker struct {
	script []op
	exec   func(ctx context.Context, o *op) (outcome, error)
	// xnodePerCycle is how many cross-node messages one cycle of the
	// script must cost: one per forwarded session event, one per remote
	// owner a scattered batch touches. Zero on single-node workloads.
	xnodePerCycle int64
}

// clientExec sends every op through the worker's clients (one per
// tenant; a single one when the workload has no tenants).
func clientExec(clients []*client.Client) func(context.Context, *op) (outcome, error) {
	return func(ctx context.Context, o *op) (outcome, error) { return execClient(ctx, clients[o.cli], o) }
}

// chainSet is the standing population of one session: chains of
// chainLen queries each, chain j being workload cluster ids[j].
type chainSet struct {
	session string
	ids     []int
	rows    int
}

func (cs chainSet) query(j, i int) eq.Query { return workload.ChainQuery(cs.ids[j], i, cs.rows) }

// warmOps is the join sequence that builds the population.
func (cs chainSet) warmOps() []op {
	var out []op
	for j := range cs.ids {
		for i := 0; i < chainLen; i++ {
			out = append(out, op{kind: opJoin, session: cs.session, query: cs.query(j, i), n: 1})
		}
	}
	return out
}

// churnOps is one stationary churn cycle over the population:
// leavesPerCycle departures, every one re-joined one round later, so
// the population returns to full size at the end of the cycle and the
// next cycle starts from the same state. Each round on a chain clips
// its tail and removes one interior member — which strands the suffix
// behind it and runs the incremental pruning cascade — and the
// following round's departures run before this round's two members come
// back, interior first. The sequence of (chain position, interior
// position) pairs is fixed; rot only rotates which chain plays which
// position, so every seed's script is the same up to renaming.
func (cs chainSet) churnOps(rot int) []op {
	chains := len(cs.ids)
	const tail = chainLen - 1
	var out []op
	var pending []op // the previous round's re-joins
	for r := 0; r < leavesPerCycle/2; r++ {
		pos := r % chains
		j := (pos + rot) % chains
		interior := 1 + (5+3*pos+7*(r/chains))%(chainLen-2) // never the head, never the tail
		out = append(out,
			op{kind: opLeave, session: cs.session, id: cs.query(j, tail).ID, n: 1},
			op{kind: opLeave, session: cs.session, id: cs.query(j, interior).ID, n: 1})
		back := []op{
			{kind: opJoin, session: cs.session, query: cs.query(j, interior), n: 1},
			{kind: opJoin, session: cs.session, query: cs.query(j, tail), n: 1},
		}
		if chains == 1 {
			// A lone chain cannot lag its re-joins behind another
			// chain's round; they follow at once.
			out = append(out, back...)
			continue
		}
		out = append(out, pending...)
		pending = back
	}
	return append(out, pending...)
}

// checkScript replays a session script against the population and
// fails unless every leave names a live query, every join a departed
// one, and the population is whole again at the end — the property that
// makes the script repeatable.
func checkScript(cs chainSet, script []op) error {
	live := map[string]bool{}
	for _, o := range cs.warmOps() {
		live[o.query.ID] = true
	}
	full := len(live)
	for i, o := range script {
		switch o.kind {
		case opLeave:
			if !live[o.id] {
				return fmt.Errorf("script op %d leaves %s, which is not live", i, o.id)
			}
			delete(live, o.id)
		case opJoin:
			if live[o.query.ID] {
				return fmt.Errorf("script op %d joins %s, which is already live", i, o.query.ID)
			}
			live[o.query.ID] = true
		}
	}
	if len(live) != full {
		return fmt.Errorf("script leaves %d of %d queries live", len(live), full)
	}
	return nil
}
