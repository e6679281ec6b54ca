package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const minTail = 10

// summary reduces one latency series (milliseconds) to the figures the
// report prints.
type summary struct {
	N    int
	Mean float64
	P50  float64
	P99  float64 // NaN when fewer than 100*minTail samples
	// TopQ is the highest percentile (as a fraction) with at least
	// minTail samples beyond it, and TopV its value; TopQ is 0 when the
	// series has fewer than 2*minTail samples.
	TopQ, TopV float64
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps q*n that should be an integer from rounding up.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supports reports whether n samples leave at least minTail beyond q.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9
}

// summarize sorts a copy of ms and reports its count, mean, median, p99
// (when supported) and the highest supported percentile.
func summarize(ms []float64) summary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := summary{N: len(s), Mean: math.NaN(), P50: quantile(s, 0.5), P99: math.NaN()}
	if len(s) == 0 {
		return out
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	out.Mean = sum / float64(len(s))
	if supports(len(s), 0.99) {
		out.P99 = quantile(s, 0.99)
	}
	if len(s) >= 2*minTail {
		out.TopQ = 1 - float64(minTail)/float64(len(s))
		out.TopV = quantile(s, out.TopQ)
	}
	return out
}

// median of a small slice of repeated measurements.
func median(v []float64) float64 {
	return quantile(sortedCopy(v), 0.5)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clock is the open-loop runner's view of time, so tests can drive the
// schedule without sleeping.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends n requests on one connection on a fixed schedule: the
// k-th scheduled request is due at start + k*interval whatever happened
// to the one before. A request's latency runs from when it was due, not
// from when the connection got round to sending it, so a stall shows up
// in every request queued behind it (coordinated omission). late is how
// far behind schedule the send itself ran. A request for which follows
// reports true takes no slot: it goes out as soon as its predecessor
// answers and is timed from its own send, like /advance after the post
// whose batch it closes.
func openLoop(c clock, start time.Time, interval time.Duration, n int, follows func(i int) bool,
	send func(i int) error, rec func(i int, latency, late time.Duration, err error)) {
	slot := 0
	for i := 0; i < n; i++ {
		due := c.Now()
		if !follows(i) {
			due = start.Add(time.Duration(slot) * interval)
			slot++
		}
		if d := due.Sub(c.Now()); d > 0 {
			c.Sleep(d)
		}
		sent := c.Now()
		err := send(i)
		rec(i, c.Now().Sub(due), sent.Sub(due), err)
	}
}
