package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: with fewer, the "percentile" is really one of the few largest
// samples and moves with every outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample such that at least p% of the samples are <= it. It
// refuses (returns an error) when fewer than minBeyond samples lie beyond
// the rank. xs need not be sorted; it is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile %v outside (0,100]", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	return xs[rank-1], nil
}

// median is the middle of xs (mean of the two middles for even lengths); 0
// for an empty slice. It does not modify xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// delivery is one (process, message) delivery captured by the OnDeliver
// hook, stamped with the wall clock.
type delivery struct {
	id int64
	at time.Time
}

// sent is one timed multicast: when it was due (intended send time) and how
// many deliveries make it complete (its destination group's size).
type sent struct {
	due   time.Time
	dests int
}

// outcome reduces a run's delivery log against what was sent.
type outcome struct {
	attempted  int           // multicasts sent in the timed window
	complete   int           // of those, delivered at every destination by the deadline
	deliveries int           // (process, message) deliveries of timed multicasts
	latencyMs  []float64     // one sample per delivery, from the intended send time
	span       time.Duration // last delivery - first intended send
}

// goodput is complete multicasts per second of the span from the first
// intended send to the last delivery (0 when nothing completed).
func (o outcome) goodput() float64 {
	if o.complete == 0 || o.span <= 0 {
		return 0
	}
	return float64(o.complete) / o.span.Seconds()
}

// reduce joins the delivery log against the timed multicasts (keyed by
// message ID). Deliveries of other messages (warm-up) and deliveries after
// the deadline are ignored: a multicast still short of its destinations at
// the deadline counts as failed, not as a late sample.
func reduce(timed map[int64]sent, log []delivery, deadline time.Time) outcome {
	o := outcome{attempted: len(timed)}
	got := make(map[int64]int, len(timed))
	var first, last time.Time
	for _, s := range timed {
		if first.IsZero() || s.due.Before(first) {
			first = s.due
		}
	}
	for _, d := range log {
		s, ok := timed[d.id]
		if !ok || d.at.After(deadline) {
			continue
		}
		o.deliveries++
		o.latencyMs = append(o.latencyMs, float64(d.at.Sub(s.due))/float64(time.Millisecond))
		got[d.id]++
		if got[d.id] == s.dests {
			o.complete++
		}
		if d.at.After(last) {
			last = d.at
		}
	}
	if !last.IsZero() {
		o.span = last.Sub(first)
	}
	return o
}

// deliveredBefore counts the deliveries of timed multicasts stamped before t.
func deliveredBefore(timed map[int64]sent, log []delivery, t time.Time) int {
	n := 0
	for _, d := range log {
		if _, ok := timed[d.id]; ok && d.at.Before(t) {
			n++
		}
	}
	return n
}

// cpuGrowth is how much dearer a delivery got over a run: the CPU per
// delivery after the run's mid-point (late) divided by the CPU per delivery
// before it (early). 0 when either side has no deliveries or no CPU.
func cpuGrowth(cpuEarly, cpuLate time.Duration, early, late int) float64 {
	if early == 0 || late == 0 || cpuEarly <= 0 {
		return 0
	}
	return (float64(cpuLate) / float64(late)) / (float64(cpuEarly) / float64(early))
}
