package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/chaos"
	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/live"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// delivery is one raw delivery event captured by the OnDeliver hook: which
// message landed, and when on the wall clock. The intended-time join
// happens after the run — the hook can fire before the sending loop has
// recorded the message's intended time, so it must not consult that map.
type delivery struct {
	id msg.ID
	at time.Time
}

// chaosFaults is the mild fault mix of a chaos_seed scenario: enough drops,
// duplicates and delays to exercise retransmission without starving the
// run.
var chaosFaults = chaos.Faults{
	Drop:     0.005,
	Dup:      0.01,
	DelayMax: 300 * time.Microsecond,
}

// chaosWindow bounds how long the faults stay on into the drain. A burst is
// submitted in microseconds, before most of its protocol packets are sent,
// so lifting the faults as soon as the last arrival is submitted would
// leave nothing to inject into; lifting them after the window keeps
// completion a property of the protocol, not of the schedule being kind.
const chaosWindow = 2 * time.Second

// runScenario drives one scenario's full stream against a fresh live
// system and reduces the run to its SLO row. The returned row carries the
// open-loop latency columns (measured from intended send times), the
// offered rate, and the stream digest; an error means the scenario did not
// complete (delivery timeout) or, for soak scenarios, the applied-op
// journal diverged from the decision snapshots. A non-zero sc.ChaosSeed
// runs the transport behind the nemesis; a file sc.WAL writes real logs
// under a fresh temp dir, replays them after the run (the recovery_ms
// column) and removes the dir.
func runScenario(sc workload.Scenario, seed int64, transport string, timeout time.Duration) (benchfmt.LiveRow, error) {
	gen, err := workload.NewGen(sc, seed)
	if err != nil {
		return benchfmt.LiveRow{}, err
	}
	digest, err := workload.Digest(sc, seed)
	if err != nil {
		return benchfmt.LiveRow{}, err
	}
	topo := gen.Topology()
	n := topo.NumProcesses()
	var nw net.Transport
	switch transport {
	case "mem":
		nw = net.New(n)
	case "tcp":
		f, err := wire.NewFabric(n)
		if err != nil {
			return benchfmt.LiveRow{}, err
		}
		nw = f
	default:
		return benchfmt.LiveRow{}, fmt.Errorf("unknown transport %q (want mem or tcp)", transport)
	}
	var c *chaos.Chaos
	if sc.ChaosSeed != 0 {
		c = chaos.Wrap(nw, sc.ChaosSeed)
		c.SetFaults(chaosFaults)
		nw = c
	}
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters, WallClock: true})
	opt := core.Options{Rec: rec}
	if gen.Generic() {
		opt.Variant = core.Generic
		opt.Conflict = msg.ClassesConflict
	}
	// Raw delivery capture: every (process, message) delivery event, stamped
	// here rather than trusting any downstream clock.
	var mu sync.Mutex
	var events []delivery
	opt.OnDeliver = func(_ groups.Process, m *msg.Message, _ failure.Time) {
		at := time.Now()
		mu.Lock()
		events = append(events, delivery{id: m.ID, at: at})
		mu.Unlock()
	}
	if sc.Soak {
		// Soak scenarios run with the applied-op journal armed so the
		// journal/decision diff below covers every campaign, not just the
		// failover tests (ROADMAP item 3).
		replog.SetJournal(true)
		defer replog.SetJournal(false)
	}
	cfg := live.Config{Opt: opt}
	walMode := sc.WAL
	if walMode == "" {
		walMode = workload.WALMem
	}
	var walDir string
	var wals []storage.WAL
	if walMode != workload.WALMem {
		walDir, err = os.MkdirTemp("", "loadsim-wal-")
		if err != nil {
			return benchfmt.LiveRow{}, err
		}
		defer os.RemoveAll(walDir)
		if wals, err = openWALs(walDir, walMode, n, rec.WAL()); err != nil {
			return benchfmt.LiveRow{}, err
		}
		cfg.Storage = func(p groups.Process) storage.WAL { return wals[p] }
	}
	sys := live.NewSystem(topo, failure.NewPattern(n), nw, cfg)
	sys.Start()

	// The open-loop clock: each arrival is submitted no earlier than its
	// intended time. When the driver falls behind (the system is slower than
	// the offered rate), arrivals fire back to back and the growing gap
	// lands in the intended-time latency — exactly the tail a closed loop
	// would have hidden.
	start := time.Now()
	intended := make(map[msg.ID]time.Duration, sc.Count)
	var lastAt time.Duration
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		if d := time.Until(start.Add(a.At)); d > 0 {
			time.Sleep(d)
		}
		m := sys.MulticastClassed(a.Src, a.Dst, nil, a.Class)
		intended[m.ID] = a.At
		lastAt = a.At
	}
	if c != nil {
		sys.AwaitDelivery(min(chaosWindow, timeout))
		c.SetFaults(chaos.Faults{})
	}
	ok := sys.AwaitDelivery(timeout)
	sys.Stop()
	if wals != nil {
		if err := replayWALs(walDir, wals, rec.WAL()); err != nil {
			return benchfmt.LiveRow{}, err
		}
	}
	rep := sys.Report()
	if !ok {
		return benchfmt.LiveRow{}, fmt.Errorf("delivery incomplete after %v (%d multicasts, %d deliveries)",
			timeout, rep.Multicasts, rep.Deliveries)
	}
	if sc.Soak {
		if errs := sys.JournalDiff(); len(errs) > 0 {
			return benchfmt.LiveRow{}, fmt.Errorf("journal/decision diff: %v (and %d more)", errs[0], len(errs)-1)
		}
	}

	// Join the raw delivery events against the intended send times. Every
	// event's message was submitted by the loop above, so a missing id is a
	// bug worth failing on, not skipping.
	mu.Lock()
	lat := make([]float64, 0, len(events))
	for _, ev := range events {
		at, found := intended[ev.id]
		if !found {
			mu.Unlock()
			return benchfmt.LiveRow{}, fmt.Errorf("delivery of unknown message m%d", ev.id)
		}
		lat = append(lat, float64(ev.at.Sub(start.Add(at)))/float64(time.Millisecond))
	}
	mu.Unlock()
	sum := obs.Summarise(lat)

	row := benchfmt.FromReport(rep)
	// The latency columns of a scenario row are the open-loop summary, not
	// the recorder's send-to-delivery histogram: measured from intended
	// time, they include any backlog the driver accrued.
	row.P50Ms = sum.P50
	row.P90Ms = sum.P90
	row.P99Ms = sum.P99
	row.P999Ms = sum.P999
	row.MaxMs = sum.Max
	row.Scenario = sc.Name
	row.WorkloadSeed = seed
	row.StreamDigest = digest
	row.Transport = transport
	row.ChaosSeed = sc.ChaosSeed
	row.ConflictRate = sc.ConflictRate
	row.FsyncMode = walMode
	if lastAt > 0 {
		row.OfferedPerSec = float64(sc.Count) / lastAt.Seconds()
	}
	return row, nil
}

// openWALs opens one file WAL per process under dir, with the fsync
// barrier on for workload.WALFile and off for workload.WALFileNoSync.
func openWALs(dir, mode string, n int, c *obs.WALCounters) ([]storage.WAL, error) {
	fsync := "sync"
	if mode == workload.WALFileNoSync {
		fsync = "none"
	}
	wals := make([]storage.WAL, 0, n)
	for p := 0; p < n; p++ {
		w, err := cliconf.OpenWAL(dir, fsync, groups.Process(p), c)
		if err != nil {
			closeWALs(wals)
			return nil, fmt.Errorf("wal open p%d: %w", p, err)
		}
		wals = append(wals, w)
	}
	return wals, nil
}

// replayWALs closes the run's logs, then reopens and replays every one as a
// restarting process would. The replay feeds the recorder's recovery
// counters, which the row reads back as its recovery_ms column.
func replayWALs(dir string, wals []storage.WAL, c *obs.WALCounters) error {
	if err := closeWALs(wals); err != nil {
		return err
	}
	for p := range wals {
		w, err := cliconf.OpenWAL(dir, "sync", groups.Process(p), c)
		if err != nil {
			return fmt.Errorf("wal reopen p%d: %w", p, err)
		}
		err = w.Replay(func(storage.Record) error { return nil })
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("wal replay p%d: %w", p, err)
		}
	}
	return nil
}

// closeWALs closes every log, returning the first error.
func closeWALs(wals []storage.WAL) error {
	var first error
	for p, w := range wals {
		if err := w.Close(); err != nil && first == nil {
			first = fmt.Errorf("wal close p%d: %w", p, err)
		}
	}
	return first
}
