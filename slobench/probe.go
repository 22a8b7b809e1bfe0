package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/storage"
)

// spanCap bounds the per-process spans one probe keeps. Calls past it are
// still counted and timed; only their span records are dropped (counted in
// probe.dropped), so a long traced run cannot grow without bound.
const spanCap = 50_000

// Per-process span kinds recorded by the wrappers.
const (
	spanSend = iota
	spanBroadcast
	spanAppend
	spanSync
)

// span is one timed call into a layer, made by process proc. typ is the
// packet type for sends; start is relative to the probe's epoch.
type span struct {
	start, dur time.Duration
	proc       int32
	kind       uint8
	typ        net.MsgType
}

// procProbe is one process's share of a probe, behind its own lock so the
// processes' goroutines do not contend on one mutex.
type procProbe struct {
	mu      sync.Mutex
	spans   []span
	sendNs  []float64 // one per Send/Broadcast call
	syncNs  []float64 // one per WAL Sync call
	walBusy time.Duration
	appends int64
	syncs   int64
	bytes   int64
}

// probe collects what the traced run's wrappers see: packet counts by type,
// WAL call counts, call durations, and spans. It only watches the two
// public injection points of the live system (the transport and the WAL
// factory), so it needs no hooks inside the program.
type probe struct {
	epoch   time.Time
	procs   []procProbe
	byType  [256]atomic.Int64
	stored  atomic.Int64
	dropped atomic.Int64
}

func newProbe(n int) *probe {
	return &probe{epoch: time.Now(), procs: make([]procProbe, n)}
}

// record files a span, unless the span cap is reached.
func (pr *probe) record(pp *procProbe, s span) {
	if pr.stored.Add(1) > spanCap {
		pr.dropped.Add(1)
		return
	}
	pp.spans = append(pp.spans, s)
}

// packets is the total packet count over all types.
func (pr *probe) packets() int64 {
	var n int64
	for i := range pr.byType {
		n += pr.byType[i].Load()
	}
	return n
}

// walTotals sums the WAL wrappers' counters over every process.
func (pr *probe) walTotals() (appends, syncs, bytes int64, busy time.Duration) {
	for i := range pr.procs {
		pp := &pr.procs[i]
		pp.mu.Lock()
		appends += pp.appends
		syncs += pp.syncs
		bytes += pp.bytes
		busy += pp.walBusy
		pp.mu.Unlock()
	}
	return
}

// durations gathers every process's send and sync call durations (ns).
func (pr *probe) durations() (send, sync []float64) {
	for i := range pr.procs {
		pp := &pr.procs[i]
		pp.mu.Lock()
		send = append(send, pp.sendNs...)
		sync = append(sync, pp.syncNs...)
		pp.mu.Unlock()
	}
	return
}

// probedTransport wraps the transport handed to live.NewSystem: every Send
// and Broadcast is counted by packet type, timed, and filed as a span of
// the sending process. It forwards obs.NetReporter and obs.WireReporter so
// System.Report keeps the inner transport's counters.
//
// Only sends issued before Close are counted: the read lock orders each
// counted send before Close, so the inner transport has not been closed
// yet and counts the packet too (barring crashes and inbox overflow).
type probedTransport struct {
	net.Transport
	pr     *probe
	mu     sync.RWMutex
	closed bool
}

func (t *probedTransport) Send(from, to groups.Process, mt net.MsgType, body any) {
	t.send(spanSend, from, mt, 1, func() { t.Transport.Send(from, to, mt, body) })
}

func (t *probedTransport) Broadcast(from groups.Process, set groups.ProcSet, mt net.MsgType, body any) {
	t.send(spanBroadcast, from, mt, int64(set.Count()), func() { t.Transport.Broadcast(from, set, mt, body) })
}

func (t *probedTransport) send(kind uint8, from groups.Process, mt net.MsgType, pkts int64, call func()) {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		call()
		return
	}
	start := time.Now()
	call()
	dur := time.Since(start)
	t.pr.byType[mt].Add(pkts)
	t.mu.RUnlock()
	pp := &t.pr.procs[from]
	pp.mu.Lock()
	pp.sendNs = append(pp.sendNs, float64(dur))
	t.pr.record(pp, span{start: start.Sub(t.pr.epoch), dur: dur, proc: int32(from), kind: kind, typ: mt})
	pp.mu.Unlock()
}

func (t *probedTransport) Close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.Transport.Close()
}

// NetReport forwards the inner transport's traffic counters.
func (t *probedTransport) NetReport() *obs.NetReport {
	if r, ok := t.Transport.(obs.NetReporter); ok {
		return r.NetReport()
	}
	return nil
}

// WireReport forwards the inner transport's socket counters (nil when the
// inner transport has no sockets).
func (t *probedTransport) WireReport() *obs.WireReport {
	if r, ok := t.Transport.(obs.WireReporter); ok {
		return r.WireReport()
	}
	return nil
}

// probedWAL wraps one process's write-ahead log from the live.Config.Storage
// factory: Append and Sync are counted, timed and filed as spans.
type probedWAL struct {
	storage.WAL
	pr *probe
	p  groups.Process
}

func (w *probedWAL) Append(rec storage.Record) error {
	start := time.Now()
	err := w.WAL.Append(rec)
	dur := time.Since(start)
	pp := &w.pr.procs[w.p]
	pp.mu.Lock()
	pp.appends++
	pp.bytes += int64(len(rec.Data))
	pp.walBusy += dur
	w.pr.record(pp, span{start: start.Sub(w.pr.epoch), dur: dur, proc: int32(w.p), kind: spanAppend})
	pp.mu.Unlock()
	return err
}

func (w *probedWAL) Sync() error {
	start := time.Now()
	err := w.WAL.Sync()
	dur := time.Since(start)
	pp := &w.pr.procs[w.p]
	pp.mu.Lock()
	pp.syncs++
	pp.syncNs = append(pp.syncNs, float64(dur))
	pp.walBusy += dur
	w.pr.record(pp, span{start: start.Sub(w.pr.epoch), dur: dur, proc: int32(w.p), kind: spanSync})
	pp.mu.Unlock()
	return err
}
