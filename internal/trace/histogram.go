package trace

import (
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of log-scaled buckets: bucket i counts
// observations in (2^(i-1), 2^i] nanoseconds, so the range spans 1ns to
// ~9 minutes (2^39 ns) with everything larger clamped into the last bucket.
const HistBuckets = 40

// histBucket is one padded bucket: concurrent committers observing similar
// latencies land on the same bucket, so each gets its own cache line.
type histBucket struct {
	v atomic.Int64
	_ [56]byte
}

// Histogram is a log-bucketed latency histogram. The zero value is ready
// to use; all methods are safe for concurrent use.
type Histogram struct {
	buckets [HistBuckets]histBucket
	count   atomic.Int64
	_       [56]byte
	sum     atomic.Int64
	_       [56]byte
}

// bucketOf maps a duration to its bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns)) // 0 for 0ns, 1 for 1ns, 2 for 2-3ns, ...
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// BucketUpperNs returns the inclusive upper bound of bucket i in
// nanoseconds (0 for the zero bucket).
func BucketUpperNs(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	h.buckets[bucketOf(ns)].v.Add(1)
	h.count.Add(1)
	if ns > 0 {
		h.sum.Add(ns)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistBucketCount is one non-empty bucket in a snapshot.
type HistBucketCount struct {
	UpperNs int64 `json:"upper_ns"` // inclusive upper bound of the bucket
	Count   int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram with derived
// percentiles, JSON-serializable for the metrics exporter.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	SumNs   int64             `json:"sum_ns"`
	MeanNs  float64           `json:"mean_ns"`
	P50Ns   int64             `json:"p50_ns"`
	P95Ns   int64             `json:"p95_ns"`
	P99Ns   int64             `json:"p99_ns"`
	Buckets []HistBucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram and computes its percentiles. Observations
// racing the copy may be partially included — the usual statistics-counter
// contract.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [HistBuckets]int64
	s := HistogramSnapshot{}
	for i := range h.buckets {
		c := h.buckets[i].v.Load()
		counts[i] = c
		s.Count += c
		if c > 0 {
			s.Buckets = append(s.Buckets, HistBucketCount{UpperNs: BucketUpperNs(i), Count: c})
		}
	}
	s.SumNs = h.sum.Load()
	if s.Count > 0 {
		s.MeanNs = float64(s.SumNs) / float64(s.Count)
	}
	s.P50Ns = quantile(counts[:], s.Count, 0.50)
	s.P95Ns = quantile(counts[:], s.Count, 0.95)
	s.P99Ns = quantile(counts[:], s.Count, 0.99)
	return s
}

// Quantile returns the upper bound of the bucket containing the p-quantile
// (0 < p <= 1) of the live histogram, or 0 when empty.
func (h *Histogram) Quantile(p float64) int64 {
	var counts [HistBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].v.Load()
		total += counts[i]
	}
	return quantile(counts[:], total, p)
}

func quantile(counts []int64, total int64, p float64) int64 {
	if total <= 0 {
		return 0
	}
	rank := int64(p * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return BucketUpperNs(i)
		}
	}
	return BucketUpperNs(len(counts) - 1)
}
