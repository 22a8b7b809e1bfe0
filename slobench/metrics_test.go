package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50},      // rank ceil(50) = 50
		{101, 50, 51},      // rank ceil(50.5) = 51
		{1000, 99, 990},    // rank 990, 10 beyond
		{2000, 99, 1980},   // rank 1980
		{1010, 99, 1000},   // rank ceil(999.9) = 1000
		{20, 1, 1},         // rank ceil(0.2) = 1
		{11, 100 / 11., 1}, // rank 1, 10 beyond
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if err != nil {
			t.Errorf("p%v of %d: %v", c.p, c.n, err)
			continue
		}
		if got != c.want {
			t.Errorf("p%v of %d = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{999, 99}, // rank 990, 9 beyond
		{100, 99}, // rank 99, 1 beyond
		{10, 50},  // rank 5, 5 beyond
		{0, 50},
		{1000, 100}, // the maximum has nothing beyond it
	} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%v of %d = %v, want refusal", c.p, c.n, v)
		}
	}
	if _, err := percentile(seq(100), 0); err == nil {
		t.Error("p0 accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median modified its input")
	}
	if median(nil) != 0 {
		t.Error("empty median")
	}
}

func TestReduceGoodputAndDeliveredShare(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	timed := map[int64]sent{
		10: {due: ms(0), dests: 3},
		11: {due: ms(100), dests: 3},
		12: {due: ms(200), dests: 2},
		13: {due: ms(300), dests: 3}, // one delivery short
	}
	deadline := ms(2000)
	log := []delivery{
		{id: 1, at: ms(5)}, // warm-up multicast: ignored
		{10, ms(10)}, {10, ms(20)}, {10, ms(30)},
		{11, ms(150)}, {11, ms(160)}, {11, ms(170)},
		{12, ms(400)}, {12, ms(1000)}, // last delivery of the run
		{13, ms(310)}, {13, ms(320)},
		{13, ms(2500)}, // after the deadline: too late
	}
	o := reduce(timed, log, deadline)
	if o.attempted != 4 || o.complete != 3 {
		t.Fatalf("attempted %d complete %d, want 4 and 3", o.attempted, o.complete)
	}
	m := endToEnd([]runResult{{Attempted: o.attempted, Complete: o.complete}})
	if got := m["delivered_share"].Value; got != 0.75 {
		t.Errorf("delivered share = %v, want 0.75", got)
	}
	if o.deliveries != 10 || len(o.latencyMs) != 10 {
		t.Errorf("deliveries %d samples %d, want 10", o.deliveries, len(o.latencyMs))
	}
	// 3 complete multicasts over first due (0ms) .. last delivery (1000ms).
	if got := o.goodput(); math.Abs(got-3) > 1e-9 {
		t.Errorf("goodput = %v, want 3/s", got)
	}
	// Latency counts from the intended send time: m12's second delivery
	// came 800ms after it was due.
	hi := 0.0
	for _, l := range o.latencyMs {
		hi = math.Max(hi, l)
	}
	if hi != 800 {
		t.Errorf("max latency = %v ms, want 800", hi)
	}
}

func TestReduceNothingDelivered(t *testing.T) {
	t0 := time.Unix(1000, 0)
	o := reduce(map[int64]sent{1: {due: t0, dests: 1}}, nil, t0.Add(time.Second))
	if o.complete != 0 || o.goodput() != 0 {
		t.Errorf("complete %d goodput %v, want 0 and 0", o.complete, o.goodput())
	}
}

func TestEndToEndAggregation(t *testing.T) {
	run := func(setup float64, lat []float64) runResult {
		return runResult{Values: map[string]float64{"setup_s": setup}, Samples: map[string][]float64{"latency_ms": lat}}
	}
	// Latency samples 1..30 spread over three system runs: the pooled p50 is
	// 15, where the median of the runs' own p50s would be 5 (or 25).
	var a, b, c []float64
	for i := 1; i <= 30; i++ {
		switch {
		case i <= 10:
			a = append(a, float64(i))
		case i <= 20:
			b = append(b, float64(i))
		default:
			c = append(c, float64(i))
		}
	}
	m := endToEnd([]runResult{run(0.009, a), run(0.002, c), run(0.004, b)})
	if got := m["setup_s"].Value; got != 0.004 {
		t.Errorf("setup_s = %v, want 0.004, the median of the system runs", got)
	}
	if got := m["p50_ms"].Value; got != 15 {
		t.Errorf("p50_ms = %v, want 15, the p50 of the pooled samples", got)
	}
}

func TestCPUGrowth(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	timed := map[int64]sent{10: {due: ms(0), dests: 2}, 11: {due: ms(100), dests: 2}}
	log := []delivery{{1, ms(1)}, {10, ms(5)}, {10, ms(6)}, {11, ms(105)}, {11, ms(106)}}
	if got := deliveredBefore(timed, log, ms(50)); got != 2 {
		t.Errorf("deliveredBefore = %d, want 2 (the warm-up delivery is not timed)", got)
	}
	// 100ms of CPU for 2 early deliveries, 300ms for 2 late ones.
	if got := cpuGrowth(100*time.Millisecond, 300*time.Millisecond, 2, 2); math.Abs(got-3) > 1e-9 {
		t.Errorf("cpuGrowth = %v, want 3", got)
	}
	if got := cpuGrowth(0, time.Second, 0, 4); got != 0 {
		t.Errorf("cpuGrowth with nothing delivered early = %v, want 0", got)
	}
}
