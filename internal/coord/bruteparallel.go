package coord

import (
	"context"
	"fmt"
	"sync"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// BruteForceExistsCtx is BruteForceExists with the subset enumeration
// sharded across workers goroutines and early cancellation through ctx.
// Size buckets are still visited smallest-first with a barrier between
// buckets, so the existence answer matches the sequential oracle
// exactly; within a bucket the workers race and the first hit cancels
// the rest.
func BruteForceExistsCtx(ctx context.Context, qs []eq.Query, store db.Store, workers int) (bool, error) {
	r, err := bruteForceParallel(ctx, qs, store, true, workers)
	if err != nil {
		return false, err
	}
	return r != nil, nil
}

// BruteForceMaxCtx is BruteForceMax with the subset enumeration sharded
// across workers goroutines and early cancellation through ctx. Buckets
// are visited largest-first with a barrier between sizes, so the
// returned set has exactly the sequential maximum size; when several
// sets of that size coordinate, the witness may be any of them (the
// sequential oracle always picks the lowest mask).
func BruteForceMaxCtx(ctx context.Context, qs []eq.Query, store db.Store, workers int) (*Result, error) {
	return bruteForceParallel(ctx, qs, store, false, workers)
}

// bruteForceParallel enumerates subset masks like bruteForce, but splits
// every size bucket into worker shards (strided, so shards stay
// balanced) and stops the whole bucket as soon as one shard finds a
// coordinating subset.
func bruteForceParallel(ctx context.Context, qs []eq.Query, store db.Store, smallestFirst bool, workers int) (*Result, error) {
	n := len(qs)
	if n == 0 {
		return nil, nil
	}
	if n > MaxBruteQueries {
		return nil, fmt.Errorf("%w (got %d)", ErrTooManyQueries, n)
	}
	if workers < 1 {
		workers = 1
	}
	meter := db.NewMeter(store)
	renamed := renameAll(qs)
	providers := providerEdges(qs)
	masks := masksBySize(n)

	for _, size := range sizeOrder(n, smallestFirst) {
		bucket := masks[size]
		if len(bucket) == 0 {
			continue
		}
		h, err := searchBucket(ctx, renamed, bucket, providers, meter, workers)
		if err != nil {
			return nil, err
		}
		if h != nil {
			return finishResult(qs, renamed, h.set, h.s, h.bind, meter)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// bucketHit is one coordinating subset found inside a size bucket.
type bucketHit struct {
	set  []int
	s    *unify.Subst
	bind db.Binding
}

// searchBucket tries every mask of one size bucket across workers
// shards. Worker w owns masks w, w+workers, w+2*workers, ... so shards
// interleave across the bucket. The first hit cancels the remaining
// shards; errors win over hits.
func searchBucket(ctx context.Context, renamed []eq.Query, bucket []uint32, providers map[[2]int][]ExtendedEdge, store db.Store, workers int) (*bucketHit, error) {
	if workers > len(bucket) {
		workers = len(bucket)
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		hit      *bucketHit
		firstErr error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bucket); i += workers {
				if bctx.Err() != nil {
					return
				}
				set := maskSet(bucket[i])
				s, bind, ok, err := trySubset(renamed, set, providers, store)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					return
				}
				if ok {
					mu.Lock()
					if hit == nil {
						hit = &bucketHit{set: set, s: s, bind: bind}
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return hit, nil
}
