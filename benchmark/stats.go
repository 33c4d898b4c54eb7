package main

import (
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// hist is a log-linear histogram of non-negative int64 samples (here:
// nanoseconds or queue depths): values below 128 get a bucket each, larger
// values 128 buckets per power of two, so a quantile read back is within
// 0.8 % of the sample it stands for. Quantiles interpolate inside a bucket.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

const (
	histSub     = 128
	histBuckets = histSub * 58 // covers the whole non-negative int64 range
)

func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 8 // v>>e is in [128, 255]
	return e*histSub + int(v>>uint(e))
}

// histBounds is the inverse of histBucket: the bucket's lowest value and width.
func histBounds(b int) (lo, width int64) {
	if b < 2*histSub {
		return int64(b), 1
	}
	e := uint(b/histSub - 1)
	return int64(b%histSub+histSub) << e, 1 << e
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// quantile returns the q-quantile (0 < q ≤ 1), or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := histBounds(b)
			return float64(lo) + float64(width)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// median returns the middle of xs (mean of the two middle values for an even
// count), or 0 when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuNanos is the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// threadCPUNanos is the calling OS thread's user+system CPU time so far.
func threadCPUNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's high-water resident set, from VmHWM in
// /proc/self/status. getrusage's ru_maxrss would not do: Linux carries it
// across exec, so under `go run` it reads the go command's 29 MB, not ours.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
