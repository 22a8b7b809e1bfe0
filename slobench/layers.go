package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/net"
	"repro/internal/wire"
)

// runResult is what one system run reports to the parent process: its
// gate inputs, one value per metric it measured, and raw samples for the
// percentiles the parent computes over all runs of a kind.
type runResult struct {
	Traced     bool                 `json:"traced"`
	Attempted  int                  `json:"attempted"`
	Complete   int                  `json:"complete"`
	Violations []string             `json:"violations,omitempty"`
	Values     map[string]float64   `json:"values"`
	Samples    map[string][]float64 `json:"samples,omitempty"`
	CPUNs      map[string]int64     `json:"cpu_ns,omitempty"`
}

// packetTypes are the packet types the live substrate sends; each gets a
// net.packets_per_delivery.<name> metric. Any other type is counted under
// "other".
var packetTypes = []string{
	"paxos.PrepareReq", "paxos.PrepareResp", "paxos.AcceptReq", "paxos.AcceptResp",
	"paxos.DecideMsg", "paxos.LearnReq", "replog.Op", "replog.FwdBatch",
}

// Pooled samples: the parent computes these metrics' percentiles over the
// samples of every traced run together.
var pooled = []struct {
	metric, samples string
	p               float64
}{
	{"workload.send_lag_p99_ms", "send_lag_ms", 99},
	{"live.submit_us_p50", "submit_us", 50},
	{"live.submit_us_p99", "submit_us", 99},
	{"storage.sync_us_p50", "sync_us", 50},
	{"storage.sync_us_p99", "sync_us", 99},
	{"net.send_us_p99", "send_us", 99},
}

// summarize reduces one system run to its result. Ratios "per delivery"
// divide by every delivery of the run (System.Report), warm-up included,
// because the layer counters cover the whole run too; CPU and allocation
// per delivery divide the timed window's cost by its deliveries.
func summarize(r *rep) (runResult, error) {
	res := runResult{
		Traced:     r.probe != nil,
		Attempted:  r.out.attempted,
		Complete:   r.out.complete,
		Violations: r.viol,
		Values:     map[string]float64{},
		Samples:    map[string][]float64{},
	}
	v := res.Values
	// Too few deliveries for a percentile: the run reports 0 and its failed
	// multicasts show in failed and delivered_share.
	p50, err := percentile(r.out.latencyMs, 50)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p50_ms: %v; reported as 0\n", err)
	}
	p99, err := percentile(r.out.latencyMs, 99)
	if err != nil {
		fmt.Fprintf(os.Stderr, "live.latency_p99_ms: %v; reported as 0\n", err)
	}
	v["p50_ms"] = p50
	v["live.latency_p99_ms"] = p99
	v["goodput_per_s"] = r.out.goodput()
	v["cpu_us_per_delivery"] = ratio(float64(r.cpu)/float64(time.Microsecond), float64(r.out.deliveries))
	v["retained_heap_mb"] = r.heapMB
	v["setup_s"] = r.setup.Seconds()

	res.Samples["latency_ms"] = r.out.latencyMs
	res.Samples["send_lag_ms"] = r.lagMs
	res.Samples["submit_us"] = r.submits
	v["live.drain_ms"] = r.drain.Seconds() * 1e3
	v["live.cpu_growth"] = r.growth
	v["check.s"] = r.check.Seconds()

	rep := r.report
	per := func(x int64) float64 { return ratio(float64(x), float64(rep.Deliveries)) }
	if s := rep.Sched; s != nil {
		v["core.scans_per_delivery"] = per(s.Scans)
		v["core.wakeups_per_delivery"] = per(s.NotifyWakeups + s.TimerWakeups)
		v["core.actions_per_delivery"] = per(s.Actions)
		v["core.skipped_scan_share"] = ratio(float64(s.SkippedScans), float64(s.Scans+s.SkippedScans))
	}
	if rl := rep.Replog; rl != nil {
		v["replog.ops_per_batch"] = rl.MeanBatchOps()
		v["replog.submits_per_delivery"] = per(rl.Submits)
		v["replog.fwd_ops_per_delivery"] = per(rl.FwdOps)
	}
	if p := rep.Paxos; p != nil {
		v["paxos.decisions_per_delivery"] = per(p.Decisions)
		v["paxos.window_depth_peak"] = float64(p.WindowDepthPeak)
		v["paxos.round_failure_share"] = ratio(float64(p.RoundFailures+p.FastRoundFailures+p.WindowFailures),
			float64(p.Rounds+p.FastRounds+p.WindowRounds))
		v["paxos.leases_acquired"] = float64(p.LeasesAcquired)
	}
	if w := rep.Wire; w != nil { // nil on the in-memory transport: the metrics read 0
		v["wire.bytes_per_delivery"] = per(w.BytesOut)
		v["wire.frames_per_flush"] = w.FramesPerFlush()
		v["wire.drops"] = float64(w.QueueDrops + w.WriteDrops)
		v["wire.reconnects"] = float64(w.Reconnects)
	}
	v["runtime.alloc_kb_per_delivery"] = ratio(r.rt.allocBytes/1024, float64(r.out.deliveries))
	v["runtime.mallocs_per_delivery"] = ratio(r.rt.allocObjects, float64(r.out.deliveries))
	v["runtime.gc_cpu_share"] = ratio(r.rt.gcCPU, r.rt.totalCPU)
	v["runtime.gc_pause_max_ms"] = r.rt.pauseMax * 1e3

	if r.probe == nil {
		return res, nil
	}
	pr := r.probe
	appends, syncs, bytes, busy := pr.walTotals()
	v["storage.appends_per_delivery"] = per(appends)
	v["storage.bytes_per_delivery"] = per(bytes)
	v["storage.appends_per_sync"] = ratio(float64(appends), float64(syncs))
	v["storage.busy_share"] = ratio(float64(busy), float64(r.life)*float64(len(pr.procs)))
	v["net.packets_per_delivery"] = per(pr.packets())
	known := map[string]bool{}
	for _, name := range packetTypes {
		known[name] = true
	}
	for t := range pr.byType {
		name := wire.TypeName(net.MsgType(t))
		if !known[name] {
			name = "other"
		}
		v["net.packets_per_delivery."+name] += per(pr.byType[t].Load())
	}
	send, sync := pr.durations()
	res.Samples["send_us"] = scale(send, 1e-3)
	res.Samples["sync_us"] = scale(sync, 1e-3)

	samples, err := parseProfile(r.profile)
	if err != nil {
		return res, err
	}
	res.CPUNs = layerCPU(samples)
	return res, nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// endToEndNames are the end-to-end metrics with their units that are the
// median over the run's system runs. p50_ms and delivered_share pool every
// system run's samples and multicasts instead.
var endToEndNames = []struct{ name, unit string }{
	{"goodput_per_s", "1/s"},
	{"cpu_us_per_delivery", "us"},
	{"retained_heap_mb", "MB"},
	{"setup_s", "s"},
}

func endToEnd(runs []runResult) map[string]metric {
	m := map[string]metric{}
	for _, e := range endToEndNames {
		m[e.name] = metric{medianValue(runs, e.name), e.unit}
	}
	attempted, complete := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		complete += r.Complete
	}
	m["delivered_share"] = metric{ratio(float64(complete), float64(attempted)), "ratio"}
	var lat []float64
	for _, r := range runs {
		lat = append(lat, r.Samples["latency_ms"]...)
	}
	p50, err := percentile(lat, 50)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p50_ms: %v; reported as 0\n", err)
	}
	m["p50_ms"] = metric{p50, "ms"}
	return m
}

// layerUnits names every per-layer metric's unit. Metrics measured by the
// wrappers or the profile exist on traced system runs only; the rest on
// every run.
var layerUnits = map[string]string{
	"workload.send_lag_p99_ms":      "ms",
	"live.submit_us_p50":            "us",
	"live.submit_us_p99":            "us",
	"live.drain_ms":                 "ms",
	"live.latency_p99_ms":           "ms",
	"live.cpu_growth":               "ratio",
	"core.scans_per_delivery":       "count",
	"core.wakeups_per_delivery":     "count",
	"core.actions_per_delivery":     "count",
	"core.skipped_scan_share":       "ratio",
	"replog.ops_per_batch":          "count",
	"replog.submits_per_delivery":   "count",
	"replog.fwd_ops_per_delivery":   "count",
	"paxos.decisions_per_delivery":  "count",
	"paxos.window_depth_peak":       "count",
	"paxos.round_failure_share":     "ratio",
	"paxos.leases_acquired":         "count",
	"storage.appends_per_delivery":  "count",
	"storage.bytes_per_delivery":    "bytes",
	"storage.appends_per_sync":      "count",
	"storage.sync_us_p50":           "us",
	"storage.sync_us_p99":           "us",
	"storage.busy_share":            "ratio",
	"net.packets_per_delivery":      "count",
	"net.send_us_p99":               "us",
	"wire.bytes_per_delivery":       "bytes",
	"wire.frames_per_flush":         "count",
	"wire.drops":                    "count",
	"wire.reconnects":               "count",
	"runtime.alloc_kb_per_delivery": "KB",
	"runtime.mallocs_per_delivery":  "count",
	"runtime.gc_cpu_share":          "ratio",
	"runtime.gc_pause_max_ms":       "ms",
	"check.s":                       "s",
	"obs.trace_overhead_p50_ms":     "ms",
	"obs.trace_overhead_cpu_us":     "us",
}

func init() {
	for _, name := range append(packetTypes, "other") {
		layerUnits["net.packets_per_delivery."+name] = "count"
	}
	for _, l := range cpuLayers {
		layerUnits[l+".cpu_share"] = "ratio"
	}
}

// layerMetrics reduces a traced run to the per-layer metrics. Traced system
// runs had the transport and WALs wrapped and the CPU profiled; the others
// ran bare. A per-layer value is the median over traced runs, with these
// exceptions: percentiles pool every traced run's samples; CPU shares come
// from the traced runs' profiles summed; runtime.*, check.s,
// live.latency_p99_ms and live.cpu_growth come from the untraced runs, which
// the tracing's own work does not disturb; obs.trace_overhead_* are the traced runs' median
// minus the untraced runs'.
func layerMetrics(runs []runResult) (map[string]metric, error) {
	var traced, plain []runResult
	for _, r := range runs {
		if r.Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return nil, fmt.Errorf("a traced run needs traced and untraced system runs (have %d and %d)", len(traced), len(plain))
	}
	m := map[string]metric{}
	for name, unit := range layerUnits {
		from := traced
		if strings.HasPrefix(name, "runtime.") || name == "check.s" || name == "live.latency_p99_ms" || name == "live.cpu_growth" {
			from = plain
		}
		m[name] = metric{medianValue(from, name), unit}
	}
	for _, p := range pooled {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.Samples[p.samples]...)
		}
		v, err := percentile(xs, p.p)
		if err != nil {
			// Too few samples (e.g. no WAL syncs): report 0, not one of the
			// few largest samples.
			fmt.Fprintf(os.Stderr, "%s: %v; reported as 0\n", p.metric, err)
		}
		m[p.metric] = metric{v, layerUnits[p.metric]}
	}
	cpu := map[string]int64{}
	var total int64
	for _, r := range traced {
		for l, ns := range r.CPUNs {
			cpu[l] += ns
			total += ns
		}
	}
	for _, l := range cpuLayers {
		m[l+".cpu_share"] = metric{ratio(float64(cpu[l]), float64(total)), "ratio"}
	}
	m["obs.trace_overhead_p50_ms"] = metric{medianValue(traced, "p50_ms") - medianValue(plain, "p50_ms"), "ms"}
	m["obs.trace_overhead_cpu_us"] = metric{medianValue(traced, "cpu_us_per_delivery") - medianValue(plain, "cpu_us_per_delivery"), "us"}
	return m, nil
}

// medianValue is the median of the runs' values of one metric.
func medianValue(runs []runResult, name string) float64 {
	xs := make([]float64, 0, len(runs))
	for _, r := range runs {
		xs = append(xs, r.Values[name])
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
