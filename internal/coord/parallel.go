package coord

import "sync"

// runParallel is the concurrent variant of the component walk: the
// per-component searches (MGU computation plus one database query each)
// run on a pool of workers, each on its own search scratch, scheduled
// over the component DAG — a component is dispatched as soon as every
// successor component has been processed, so independent branches of
// the condensation proceed concurrently while the chain case degrades
// gracefully to sequential execution.
func (w *sccWalk) runParallel(workers int) error {
	nc := w.dag.N()

	// preds[c] lists the components that wait on c; pending[c] counts
	// the successors c itself waits on.
	preds := make([][]int, nc)
	pending := make([]int, nc)
	for c := 0; c < nc; c++ {
		pending[c] = len(w.dag.Succ(c))
		for _, s := range w.dag.Succ(c) {
			preds[s] = append(preds[s], c)
		}
	}
	var ready []int
	for c := 0; c < nc; c++ {
		if pending[c] == 0 {
			ready = append(ready, c)
		}
	}

	if workers > nc {
		workers = nc
	}
	tasks := make(chan int)
	results := make(chan compDone)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sr search
			for c := range tasks {
				results <- compDone{c: c, err: w.processComponent(c, &sr)}
			}
		}()
	}

	// Scheduler loop: hand out ready components, collect completions,
	// release predecessors whose successors are all done. On error, stop
	// dispatching and drain what is in flight.
	var firstErr error
	outstanding, completed := 0, 0
	for completed < nc && firstErr == nil {
		var send chan int
		next := -1
		if len(ready) > 0 {
			send = tasks
			next = ready[len(ready)-1]
		}
		select {
		case send <- next:
			ready = ready[:len(ready)-1]
			outstanding++
		case r := <-results:
			outstanding--
			completed++
			if r.err != nil {
				firstErr = r.err
				continue
			}
			for _, p := range preds[r.c] {
				pending[p]--
				if pending[p] == 0 {
					ready = append(ready, p)
				}
			}
		}
	}
	close(tasks)
	for outstanding > 0 {
		r := <-results
		outstanding--
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	wg.Wait()
	return firstErr
}

type compDone struct {
	c   int
	err error
}
