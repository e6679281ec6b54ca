package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending: summarize must sort
	}
	return v
}

func TestSummarizeTail(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p99        float64 // NaN when unsupported
		topQ, topV float64
	}{
		{1000, 990, 0.99, 990},
		{2000, 1980, 0.995, 1990},
		{999, math.NaN(), 1 - 10.0/999, 989},
		{400, math.NaN(), 0.975, 390},
		{20, math.NaN(), 0.5, 10},
		{19, math.NaN(), 0, 0},
	} {
		s := summarize(ramp(tc.n))
		if s.N != tc.n {
			t.Errorf("n=%d: count %d", tc.n, s.N)
		}
		if math.IsNaN(tc.p99) != math.IsNaN(s.P99) || (!math.IsNaN(tc.p99) && s.P99 != tc.p99) {
			t.Errorf("n=%d: p99 %v, want %v", tc.n, s.P99, tc.p99)
		}
		if math.Abs(s.TopQ-tc.topQ) > 1e-12 || s.TopV != tc.topV {
			t.Errorf("n=%d: top p%v = %v, want p%v = %v", tc.n, 100*s.TopQ, s.TopV, 100*tc.topQ, tc.topV)
		}
		// The reported tail always leaves minTail samples beyond it.
		if s.TopQ > 0 {
			beyond := 0
			for _, v := range ramp(tc.n) {
				if v > s.TopV {
					beyond++
				}
			}
			if beyond < minTail {
				t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
			}
		}
	}
	if s := summarize([]float64{3, 1, 2}); s.P50 != 2 || s.Mean != 2 {
		t.Errorf("median/mean of 1,2,3 = %v/%v", s.P50, s.Mean)
	}
	if s := summarize(nil); s.N != 0 || !math.IsNaN(s.P50) {
		t.Errorf("empty series: %+v", s)
	}
}

// fakeClock advances only when the code under test sleeps or a send
// "takes" time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromSchedule(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	start := c.now
	// Request 1 stalls for 35 ms on a 10 ms schedule: requests 2..4 are
	// due before it answers and queue behind it on the one connection.
	cost := []time.Duration{2, 35, 2, 2, 2, 2}
	var lat, late []time.Duration
	openLoop(c, start, 10*time.Millisecond, len(cost), func(int) bool { return false },
		func(i int) error { c.now = c.now.Add(cost[i] * time.Millisecond); return nil },
		func(i int, l, lt time.Duration, err error) { lat, late = append(lat, l), append(late, lt) })
	ms := time.Millisecond
	wantLate := []time.Duration{0, 0, 25 * ms, 17 * ms, 9 * ms, 1 * ms}
	wantLat := []time.Duration{2 * ms, 35 * ms, 27 * ms, 19 * ms, 11 * ms, 3 * ms}
	for i := range cost {
		if late[i] != wantLate[i] || lat[i] != wantLat[i] {
			t.Errorf("request %d: latency %v late %v, want %v and %v", i, lat[i], late[i], wantLat[i], wantLate[i])
		}
	}
	// The backlog drains: request 5 left 1 ms late and ended at 53 ms.
	if end := c.now.Sub(start); end != 53*ms {
		t.Errorf("schedule ended after %v, want 53ms", end)
	}
}

func TestOpenLoopFollowersTakeNoSlot(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	start := c.now
	// Posts are scheduled every 10 ms; each is followed by a boundary
	// that goes out when the post answers and is timed from its own send.
	cost := []time.Duration{4, 1, 12, 1, 2, 1}
	var sent, lat, late []time.Duration
	openLoop(c, start, 10*time.Millisecond, len(cost), func(i int) bool { return i%2 == 1 },
		func(i int) error {
			sent = append(sent, c.now.Sub(start))
			c.now = c.now.Add(cost[i] * time.Millisecond)
			return nil
		},
		func(i int, l, lt time.Duration, err error) { lat, late = append(lat, l), append(late, lt) })
	ms := time.Millisecond
	wantSent := []time.Duration{0, 4 * ms, 10 * ms, 22 * ms, 23 * ms, 25 * ms}
	wantLat := []time.Duration{4 * ms, 1 * ms, 12 * ms, 1 * ms, 5 * ms, 1 * ms}
	wantLate := []time.Duration{0, 0, 0, 0, 3 * ms, 0}
	for i := range cost {
		if sent[i] != wantSent[i] || lat[i] != wantLat[i] || late[i] != wantLate[i] {
			t.Errorf("request %d: sent at %v, latency %v, late %v; want %v, %v, %v",
				i, sent[i], lat[i], late[i], wantSent[i], wantLat[i], wantLate[i])
		}
	}
}
