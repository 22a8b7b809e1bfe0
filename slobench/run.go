package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/live"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Timeouts of one system run. Both are far above what a healthy run needs;
// they only bound a run that has stopped making progress.
const (
	warmupTimeout = 10 * time.Second
	drainTimeout  = 8 * time.Second
)

// rep is one system run: a fresh live system driven by one arrival stream.
type rep struct {
	setup   time.Duration // NewGen + NewSystem + Start + warm-up
	out     outcome
	window  time.Duration // first intended send to the end of the drain
	cpu     time.Duration // process user+sys CPU over the window
	growth  float64       // CPU per delivery, second half of the arrivals ÷ first half
	heapMB  float64       // HeapAlloc after a forced GC, before Stop
	drain   time.Duration // AwaitDelivery after the last arrival
	check   time.Duration // System.Check
	lagMs   []float64     // per arrival: actual submit - intended time
	submits []float64     // per arrival: MulticastClassed duration, µs
	rt      runtimeDelta
	report  obs.RunReport
	viol    []string      // spec violations other than termination
	probe   *probe        // traced runs only
	spans   []reqSpan     // traced runs only
	profile []byte        // traced runs only: CPU profile of the timed window
	life    time.Duration // probe creation to Stop (traced runs only)
}

// reqSpan is the client-side trace of one multicast: due (intended send),
// the MulticastClassed call, and each destination delivery.
type reqSpan struct {
	id                   int64
	due, callAt, callEnd time.Time
	delivered            []procTime
}

type procTime struct {
	p  groups.Process
	at time.Time
}

// harness is a live system set up and warmed up for one arrival stream.
type harness struct {
	gen  *workload.Gen
	topo *groups.Topology
	sys  *live.System

	mu      sync.Mutex
	log     []delivery
	procLog []groups.Process // parallel to log, traced runs only
}

// setUp builds, starts and warms up a fresh live system for the stream of
// (sc, seed), recording the time it took in r.setup. traced wraps the
// transport and WALs in a probe (r.probe); tmp is the directory file WALs
// are created in.
//
// The WALs are never closed, and their files outlive the call: System.Stop
// does not wait for the paxos loops, which drain their inboxes after it
// returns and may still append, and an append on a closed WAL panics. The
// process exit closes them; the parent removes tmp after each child.
func setUp(wl Workload, sc workload.Scenario, seed int64, traced bool, tmp string, r *rep) (*harness, error) {
	setupStart := time.Now()
	gen, err := workload.NewGen(sc, seed)
	if err != nil {
		return nil, err
	}
	h := &harness{gen: gen, topo: gen.Topology()}
	n := h.topo.NumProcesses()

	var nw net.Transport
	switch wl.Transport {
	case "mem":
		nw = net.New(n)
	case "tcp":
		f, err := wire.NewFabric(n)
		if err != nil {
			return nil, err
		}
		nw = f
	default:
		return nil, fmt.Errorf("unknown transport %q", wl.Transport)
	}
	if traced {
		r.probe = newProbe(n)
		nw = &probedTransport{Transport: nw, pr: r.probe}
	}

	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters, WallClock: true})
	opt := core.Options{Rec: rec}
	if gen.Generic() {
		opt.Variant = core.Generic
		opt.Conflict = msg.ClassesConflict
	}
	opt.OnDeliver = func(p groups.Process, m *msg.Message, _ failure.Time) {
		at := time.Now()
		h.mu.Lock()
		h.log = append(h.log, delivery{id: int64(m.ID), at: at})
		if traced {
			h.procLog = append(h.procLog, p)
		}
		h.mu.Unlock()
	}

	var walErr error
	walDir := ""
	fileWAL := wl.WAL == "file-nosync"
	if fileWAL {
		walDir, err = os.MkdirTemp(tmp, "wal-")
		if err != nil {
			nw.Close()
			return nil, err
		}
	}
	factory := func(p groups.Process) storage.WAL {
		var w storage.WAL = storage.NewMem().Observe(rec.WAL())
		if fileWAL {
			f, err := storage.OpenFile(filepath.Join(walDir, fmt.Sprintf("p%d", p)),
				storage.FileOptions{NoFsync: true, Counters: rec.WAL()})
			if err != nil {
				walErr = err
			} else {
				w = f
			}
		}
		if traced {
			w = &probedWAL{WAL: w, pr: r.probe, p: p}
		}
		return w
	}
	h.sys = live.NewSystem(h.topo, failure.NewPattern(n), nw, live.Config{Opt: opt, Storage: factory})
	if walErr != nil {
		h.sys.Stop()
		return nil, walErr
	}
	h.sys.Start()
	// Warm-up: one multicast per group, delivered everywhere, so every
	// realm holds its lease before timing starts.
	for g := 0; g < h.topo.NumGroups(); g++ {
		gid := groups.GroupID(g)
		h.sys.Multicast(h.topo.Group(gid).Members()[0], gid, nil)
	}
	if !h.sys.AwaitDelivery(warmupTimeout) {
		h.sys.Stop()
		return nil, fmt.Errorf("warm-up multicasts not delivered within %v", warmupTimeout)
	}
	r.setup = time.Since(setupStart)
	return h, nil
}

// runRep drives one arrival stream against a fresh live system. traced
// wraps the transport and WALs in a probe and keeps client spans; tmp is
// the directory for file WALs (see setUp).
func runRep(wl Workload, sc workload.Scenario, seed int64, traced bool, tmp string) (*rep, error) {
	r := &rep{}
	h, err := setUp(wl, sc, seed, traced, tmp, r)
	if err != nil {
		return nil, err
	}

	// Timed window: the open-loop clock. Each arrival is submitted no
	// earlier than its intended time; when the system falls behind, arrivals
	// go back to back and the backlog lands in the intended-time latency.
	timed := make(map[int64]sent, sc.Count)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			h.sys.Stop()
			return nil, err
		}
	}
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	cpuMid, midAt := cpu0, start
	for {
		a, ok := h.gen.Next()
		if !ok {
			break
		}
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		callAt := time.Now()
		m := h.sys.MulticastClassed(a.Src, a.Dst, nil, a.Class)
		callEnd := time.Now()
		timed[int64(m.ID)] = sent{due: due, dests: h.topo.Group(a.Dst).Count()}
		r.lagMs = append(r.lagMs, float64(callAt.Sub(due))/float64(time.Millisecond))
		r.submits = append(r.submits, float64(callEnd.Sub(callAt))/float64(time.Microsecond))
		if traced {
			r.spans = append(r.spans, reqSpan{id: int64(m.ID), due: due, callAt: callAt, callEnd: callEnd})
		}
		if len(timed) == sc.Count/2 {
			cpuMid, midAt = cpuTime(), time.Now()
		}
	}
	lastSubmit := time.Now()
	deadline := lastSubmit.Add(drainTimeout)
	if !h.sys.AwaitDelivery(drainTimeout) {
		fmt.Fprintf(os.Stderr, "drain: not every multicast delivered everywhere within %v\n", drainTimeout)
	}
	end := time.Now()
	r.cpu = cpuTime() - cpu0
	r.rt = readRuntime().sub(rt0)
	if traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	r.drain = end.Sub(lastSubmit)
	r.window = end.Sub(start)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	h.sys.Stop()
	if traced {
		r.life = time.Since(r.probe.epoch)
	}
	r.report = h.sys.Report()
	checkStart := time.Now()
	r.viol = specViolations(h.sys.Check())
	r.check = time.Since(checkStart)

	// Deliveries count up to the drain deadline, not up to end: AwaitDelivery
	// can return once the last delivery is recorded but before that
	// delivery's OnDeliver hook has stamped it. Stop has waited for the
	// hooks, so the log is complete here.
	h.mu.Lock()
	r.out = reduce(timed, h.log, deadline)
	early := deliveredBefore(timed, h.log, midAt)
	r.growth = cpuGrowth(cpuMid-cpu0, r.cpu-(cpuMid-cpu0), early, r.out.deliveries-early)
	if traced {
		attachDeliveries(r.spans, h.log, h.procLog)
	}
	h.mu.Unlock()
	return r, nil
}

// terminationProperty is the Property of check.Termination's violations.
const terminationProperty = "termination"

// specViolations keeps the violations the correctness gate fails a run on:
// every property but termination. A multicast short of a destination at the
// drain deadline is a failed multicast (see reduce), not a spec violation.
func specViolations(vs []*check.Violation) []string {
	var out []string
	for _, v := range vs {
		if v.Property != terminationProperty {
			out = append(out, v.Error())
		}
	}
	return out
}

// attachDeliveries files each logged delivery under its request span.
func attachDeliveries(spans []reqSpan, log []delivery, procs []groups.Process) {
	byID := make(map[int64]*reqSpan, len(spans))
	for i := range spans {
		byID[spans[i].id] = &spans[i]
	}
	for i, d := range log {
		if s, ok := byID[d.id]; ok {
			s.delivered = append(s.delivered, procTime{p: procs[i], at: d.at})
		}
	}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read at both ends of the timed window.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

// runtimeDelta is what the Go runtime did over the timed window.
type runtimeDelta struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
	pauseMax                 float64 // longest GC stop-the-world pause (bucket upper bound), seconds
}

type runtimeSnap struct {
	vals  [4]float64
	hist  *metrics.Float64Histogram
	valid bool
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var snap runtimeSnap
	for i := 0; i < 4; i++ {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			snap.vals[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			snap.vals[i] = s[i].Value.Float64()
		}
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		snap.hist = s[4].Value.Float64Histogram()
		snap.valid = true
	}
	return snap
}

func (b runtimeSnap) sub(a runtimeSnap) runtimeDelta {
	d := runtimeDelta{
		allocBytes:   b.vals[0] - a.vals[0],
		allocObjects: b.vals[1] - a.vals[1],
		gcCPU:        b.vals[2] - a.vals[2],
		totalCPU:     b.vals[3] - a.vals[3],
	}
	if a.valid && b.valid && len(a.hist.Counts) == len(b.hist.Counts) {
		for i := range b.hist.Counts {
			hi := b.hist.Buckets[i+1]
			if hi > 1e9 { // the last bucket is open-ended
				hi = b.hist.Buckets[i]
			}
			if b.hist.Counts[i] > a.hist.Counts[i] && hi > d.pauseMax {
				d.pauseMax = hi
			}
		}
	}
	return d
}
