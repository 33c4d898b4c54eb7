// Package stats provides the measurement primitives NFVnice relies on:
// cycle-count histograms with percentile estimation (libnf's shared-memory
// service-time histogram), moving-window medians (the 100 ms estimator the
// NF manager uses), exponentially weighted moving averages (ECN queue-length
// tracking), rate meters, Jain's fairness index, and time-series recorders
// for the evaluation figures.
package stats

import (
	"math"
	"math/bits"
	"slices"

	"nfvnice/internal/simtime"
)

// Histogram counts samples in logarithmically spaced buckets, like the
// shared-memory histogram libnf maintains for packet processing times. The
// log spacing keeps the structure small while preserving relative precision
// across the 50..10000-cycle range the paper's NFs cover.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// BucketOf maps a value to a bucket index: bit length of the value, i.e.
// bucket k holds values in [2^(k-1), 2^k). Exported so other packages
// (internal/telemetry) share the same bucket layout.
func BucketOf(v uint64) int { return bits.Len64(v) }

// BucketUpper reports the largest value bucket i can hold — the inclusive
// ("le") upper bound used when exposing the histogram.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// HistogramSnapshot is a copyable view of a log-bucket histogram, shared
// with internal/telemetry for exposition.
type HistogramSnapshot struct {
	Count, Sum uint64
	Min, Max   uint64
	// Buckets[k] counts samples of bit length k (range [2^(k-1), 2^k)).
	Buckets [64]uint64
}

// Observe adds a sample.
func (h *Histogram) Observe(v uint64) {
	idx := BucketOf(v)
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max report observed extremes (0 with no samples).
func (h *Histogram) Min() uint64 { return h.min }
func (h *Histogram) Max() uint64 { return h.max }

// Quantile estimates the q-th quantile (0..1) from the bucket midpoints.
// With log buckets the estimate is within a factor of two of the true value,
// which is ample for CPU-share computation.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			lo := uint64(1) << (i - 1)
			hi := uint64(1) << i
			return (lo + hi) / 2
		}
	}
	return h.max
}

// Reset clears all samples.
func (h *Histogram) Reset() { *h = Histogram{} }

// Snapshot copies the histogram state for exposition. Not safe against a
// concurrent Observe; the simulator is single-threaded, so callers gather
// when the simulation is not being advanced.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Buckets: h.buckets,
	}
}

// MedianWindow estimates the median over a sliding window of the most recent
// samples — the NF manager's "median over a 100 ms moving window" estimator
// for per-packet processing time. It keeps raw samples (bounded) and evicts
// by age.
type MedianWindow struct {
	span    simtime.Cycles
	samples []timedSample
	scratch []uint64
}

type timedSample struct {
	at simtime.Cycles
	v  uint64
}

// NewMedianWindow returns a window covering span cycles of history.
func NewMedianWindow(span simtime.Cycles) *MedianWindow {
	return &MedianWindow{span: span}
}

// Observe records v at time now and evicts samples older than the span.
func (m *MedianWindow) Observe(now simtime.Cycles, v uint64) {
	m.samples = append(m.samples, timedSample{now, v})
	m.evict(now)
}

func (m *MedianWindow) evict(now simtime.Cycles) {
	cut := 0
	for cut < len(m.samples) && now-m.samples[cut].at > m.span {
		cut++
	}
	if cut > 0 {
		m.samples = append(m.samples[:0], m.samples[cut:]...)
	}
}

// Median reports the median of in-window samples, or 0 when empty.
func (m *MedianWindow) Median(now simtime.Cycles) uint64 {
	m.evict(now)
	n := len(m.samples)
	if n == 0 {
		return 0
	}
	m.scratch = m.scratch[:0]
	for _, s := range m.samples {
		m.scratch = append(m.scratch, s.v)
	}
	slices.Sort(m.scratch) // allocation-free: the live engine calls this every weight tick
	return m.scratch[n/2]
}

// Mean reports the mean of in-window samples (used by the estimator
// ablation), or 0 when empty.
func (m *MedianWindow) Mean(now simtime.Cycles) float64 {
	m.evict(now)
	if len(m.samples) == 0 {
		return 0
	}
	var sum uint64
	for _, s := range m.samples {
		sum += s.v
	}
	return float64(sum) / float64(len(m.samples))
}

// Len reports the number of in-window samples without evicting.
func (m *MedianWindow) Len() int { return len(m.samples) }

// EWMA is an exponentially weighted moving average, used for the ECN
// queue-length estimate (RFC 3168-style RED averaging).
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0,1]; larger
// alpha weights recent samples more.
func NewEWMA(alpha float64) *EWMA {
	return &EWMA{alpha: alpha}
}

// Observe folds a sample into the average.
func (e *EWMA) Observe(v float64) {
	if !e.init {
		e.value = v
		e.init = true
		return
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
}

// Value reports the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

// Jain computes Jain's fairness index over a set of allocations:
// (Σx)² / (n·Σx²). It is 1.0 when all values are equal and approaches 1/n
// under maximal unfairness. Zero-length or all-zero input reports 1 (a
// degenerate but conventionally "fair" outcome).
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Meter counts events and converts windows of counts into rates. Experiments
// snapshot it once per simulated second to produce the paper's per-second
// series.
type Meter struct {
	total     uint64
	lastCount uint64
	lastAt    simtime.Cycles
}

// Add counts n events.
func (m *Meter) Add(n uint64) { m.total += n }

// Inc counts one event.
func (m *Meter) Inc() { m.total++ }

// Total reports the lifetime count.
func (m *Meter) Total() uint64 { return m.total }

// Snapshot reports the event rate since the previous Snapshot (or since the
// meter's creation) and starts a new window at now.
func (m *Meter) Snapshot(now simtime.Cycles) simtime.Rate {
	delta := m.total - m.lastCount
	elapsed := now - m.lastAt
	m.lastCount = m.total
	m.lastAt = now
	return simtime.PerSecond(delta, elapsed)
}

// Series records (time, value) points for plotting or row output.
type Series struct {
	Name   string
	Times  []simtime.Cycles
	Values []float64
}

// Record appends a point.
func (s *Series) Record(t simtime.Cycles, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Last reports the most recent value, or 0 when empty.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// MeanOver reports the mean of values recorded in [from, to].
func (s *Series) MeanOver(from, to simtime.Cycles) float64 {
	var sum float64
	n := 0
	for i, t := range s.Times {
		if t >= from && t <= to {
			sum += s.Values[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MinMaxOver reports the extremes of values recorded in [from, to]; ok is
// false when no points fall in the range.
func (s *Series) MinMaxOver(from, to simtime.Cycles) (lo, hi float64, ok bool) {
	for i, t := range s.Times {
		if t < from || t > to {
			continue
		}
		v := s.Values[i]
		if !ok {
			lo, hi, ok = v, v, true
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, ok
}
