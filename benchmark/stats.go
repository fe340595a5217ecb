package main

import (
	"math"
	"sort"

	"prudentia/internal/obs"
)

// percentile returns the q-quantile (0 <= q <= 1) of vals by linear
// interpolation between the closest ranks. vals is sorted in place. It
// returns 0 for an empty slice. The benchmark keeps its own arithmetic
// rather than calling internal/stats, so that a change to the measured
// program cannot change how it is measured.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

// median is percentile(vals, 0.5) on a copy, leaving vals untouched.
func median(vals []float64) float64 {
	return percentile(append([]float64(nil), vals...), 0.5)
}

// histQuantile estimates the q-quantile of a fixed-bucket histogram the
// way Prometheus' histogram_quantile does: find the bucket holding the
// target rank and interpolate linearly inside it, taking 0 as the lower
// edge of the first bucket. Observations in the overflow bucket report
// the highest finite bound. It returns 0 for an empty histogram.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if i == len(h.Bounds) {
			break
		}
		if cum+float64(c) >= rank && c > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.Bounds[i-1]
			}
			return lower + (h.Bounds[i]-lower)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// histDelta returns after − before bucket by bucket: the observations a
// histogram received between two snapshots of one registry.
func histDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{
		Bounds: after.Bounds,
		Counts: append([]int64(nil), after.Counts...),
		Count:  after.Count - before.Count,
		Sum:    after.Sum - before.Sum,
	}
	for i := range before.Counts {
		if i < len(d.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// histMerge adds histograms that share one bucket layout.
func histMerge(hs ...obs.HistogramSnapshot) obs.HistogramSnapshot {
	var m obs.HistogramSnapshot
	for _, h := range hs {
		if m.Bounds == nil {
			m.Bounds = h.Bounds
			m.Counts = make([]int64, len(h.Counts))
		}
		for i := range h.Counts {
			if i < len(m.Counts) {
				m.Counts[i] += h.Counts[i]
			}
		}
		m.Count += h.Count
		m.Sum += h.Sum
	}
	return m
}
