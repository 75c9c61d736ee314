package main

import (
	"math"

	"repro/internal/metrics"
)

// spread is the interquartile range of xs as a share of its median: the
// run-to-run steadiness figure the result record carries per metric.
func spread(xs []float64) float64 {
	m := metrics.Quantile(xs, 0.5)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (metrics.Quantile(xs, 0.75) - metrics.Quantile(xs, 0.25)) / math.Abs(m)
}

// perJob divides a total by a job count, reading 0 when no job ran.
func perJob(total float64, jobs int) float64 {
	if jobs == 0 {
		return 0
	}
	return total / float64(jobs)
}
