package server

import (
	"sync/atomic"
	"time"

	"entangled/internal/api"
	"entangled/internal/db"
)

// latencyBucketsNS are the histogram bounds shared by the batch and
// session latency histograms: roughly logarithmic from 50µs to 1s, with
// a final unbounded bucket.
var latencyBucketsNS = []int64{
	50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
	25_000_000, 50_000_000, 100_000_000, 250_000_000,
	1_000_000_000,
}

// histogram is a fixed-bucket concurrent latency histogram.
type histogram struct {
	counts []atomic.Int64 // len(latencyBucketsNS)+1; last = overflow
	count  atomic.Int64
	sum    atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBucketsNS)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	i := 0
	for i < len(latencyBucketsNS) && ns > latencyBucketsNS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

func (h *histogram) snapshot() api.Histogram {
	out := api.Histogram{
		BucketsNS: latencyBucketsNS,
		Counts:    make([]int64, len(h.counts)),
		Count:     h.count.Load(),
		SumNS:     h.sum.Load(),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}

// metrics aggregates the server's operational counters. Everything is
// atomic: handlers record without locks, and /metrics reads a
// consistent-enough snapshot.
type metrics struct {
	start time.Time

	coordRequests atomic.Int64
	coordBatches  atomic.Int64
	coordErrors   atomic.Int64
	coordRejected atomic.Int64
	coordQueries  atomic.Int64
	coordLatency  *histogram

	// Session creations/evictions are counted by the registry, which
	// owns those transitions.
	sessionEvents  atomic.Int64
	sessionLatency *histogram
}

func newMetrics() *metrics {
	return &metrics{
		start:          time.Now(),
		coordLatency:   newHistogram(),
		sessionLatency: newHistogram(),
	}
}

// planStats sums the plan-cache counters of the caches behind a Store
// through the db seam, so durable and wrapped stores report too.
func planStats(store db.Store) (api.PlanCacheMetrics, bool) {
	st, ok := db.AggregatePlanStats(store)
	if !ok {
		return api.PlanCacheMetrics{}, false
	}
	out := api.PlanCacheMetrics{Hits: st.Hits, Misses: st.Misses, Entries: int64(st.Entries)}
	if total := st.Hits + st.Misses; total > 0 {
		out.HitRate = float64(st.Hits) / float64(total)
	}
	return out, true
}
