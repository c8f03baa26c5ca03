package main

import (
	"sort"
	"syscall"
	"time"
)

// epoch anchors every stamp of a run on the monotonic clock.
var epoch = time.Now()

// now is the harness clock: nanoseconds since the run began. Bodies
// call it only to write stamps the harness reads after the episode; no
// body ever branches on the value.
func now() int64 {
	//hopelint:ignore nondeterminism -- measurement stamp, written for the harness and never read back by a body
	return int64(time.Since(epoch))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// samples holds every metric's per-episode (or per-repetition) values
// by metric name; the report summarises each list.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summary is how every metric is reported: the sample count, the
// median, and the 10th and 90th percentiles across episodes (or across
// repetitions, for a probe). Value is the one number the driver guards:
// the median, or for a timing the decile on the metric's better side
// (see metric.decile).
type summary struct {
	N      int     `json:"n"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	P10    float64 `json:"p10"`
	P90    float64 `json:"p90"`
}

// quantile returns the q-quantile (0..1) of sorted xs by linear
// interpolation; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (m metric) summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := summary{N: len(s), Median: quantile(s, 0.5), P10: quantile(s, 0.1), P90: quantile(s, 0.9)}
	sum.Value = sum.Median
	if m.decile {
		sum.Value = sum.P10
		if m.better == "higher" {
			sum.Value = sum.P90
		}
	}
	return sum
}

// median is the plain median of xs.
func median(xs []float64) float64 { return metric{}.summarize(xs).Median }

// quantileNs is the q-quantile of unsorted nanosecond samples.
func quantileNs(xs []int64, q float64) float64 {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = float64(x)
	}
	sort.Float64s(s)
	return quantile(s, q)
}
