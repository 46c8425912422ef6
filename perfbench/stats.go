package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is
// not modified. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durations converts nanosecond samples to float64 in the given unit.
func durations(ns []int64, unit time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / float64(unit)
	}
	return out
}

// window is the length of the time windows the steady statistics are
// taken over: a latency percentile or a rate is computed per window and
// the run reports the median over windows, so a multi-millisecond stall
// of the machine moves the windows it falls in, not the whole run.
const window = 400 * time.Millisecond

// sample is one timed observation: when it happened, relative to the
// start of its phase, and its value.
type sample struct {
	at time.Duration
	v  float64
}

// windowQuantiles groups samples into consecutive windows by their
// time and returns the q-quantile of each window that holds at least
// minN samples.
func windowQuantiles(s []sample, q float64, minN int) []float64 {
	byWin := make(map[int64][]float64)
	for _, x := range s {
		w := int64(x.at / window)
		byWin[w] = append(byWin[w], x.v)
	}
	var out []float64
	for _, vs := range byWin {
		if len(vs) >= minN {
			out = append(out, quantile(vs, q))
		}
	}
	return out
}

// windowRates returns the number of events per second in each full
// window of [0, span), given the events' times.
func windowRates(at []time.Duration, span time.Duration) []float64 {
	n := int(span / window)
	if n == 0 {
		return nil
	}
	counts := make([]float64, n)
	for _, t := range at {
		if w := int(t / window); t >= 0 && w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= window.Seconds()
	}
	return counts
}

// Steady estimators. A stall of the shared machine — the hypervisor or
// a neighbour taking a processor for milliseconds — raises the latency
// percentiles and lowers the rate of the windows it falls in, never the
// reverse. So a run reports, over its windows, the lower quartile of a
// latency percentile and the upper quartile of a rate: the figure that
// a quarter of the windows reach and three quarters fall short of. A
// change that slows every request moves every window and so the figure;
// the pooled percentiles over all samples are printed beside it.
func latencyOf(ws []float64) float64 { return quantile(ws, 0.25) }
func rateOf(ws []float64) float64    { return quantile(ws, 0.75) }

// steadyQuantile is latencyOf over the windows' q-quantiles; when no
// window holds enough samples (very short runs) it falls back to the
// quantile of all samples.
func steadyQuantile(s []sample, q float64) float64 {
	if ws := windowQuantiles(s, q, minWindowSamples); len(ws) > 0 {
		return latencyOf(ws)
	}
	return quantile(values(s), q)
}

// values returns the samples' values.
func values(s []sample) []float64 {
	vs := make([]float64, len(s))
	for i, x := range s {
		vs[i] = x.v
	}
	return vs
}

// minWindowSamples is the fewest samples a window needs for its 99th
// percentile to have at least ten samples beyond it.
const minWindowSamples = 1000

// frac returns a/b, or 0 when b is 0 (a layer that did no work).
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// value is one reported figure with its unit and the number of
// samples it summarizes.
type value struct {
	v    float64
	unit string
	n    int
}

// results maps metric names to reported values.
type results map[string]value

func (r results) set(name string, v float64, unit string, n int) {
	r[name] = value{v: v, unit: unit, n: n}
}
