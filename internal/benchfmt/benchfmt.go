// Package benchfmt is the versioned on-disk schema of the live benchmark
// documents (BENCH_live.json, BENCH_scenarios.json). It exists so the
// writer, cmd/loadsim (one SLO row per scenario), and the reader,
// cmd/benchgate (gates fresh rows against committed baselines), share one
// row shape instead of two drifting copies. Bump SchemaVersion when a column changes meaning; readers refuse
// cross-version comparisons outright, because silently diffing mismatched
// shapes produces plausible-looking nonsense.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

// SchemaVersion is the BENCH document schema version. Version 2 added the
// schema field itself, the transport column, and wire-level byte counts.
// Version 3 made deliveries/sec a first-class column and added the batching
// pipeline's shape — and the default load changed from a paced open loop to
// an unthrottled burst, so v2 latency numbers are not comparable. Version 4
// added the conflict_rate column and fast_deliveries. Version 5 added the
// fsync_mode column plus WAL bytes/op, sync counts and measured recovery
// time. Version 6 added the event-driven scheduler's columns — and the
// stepping model changed from a 200µs idle poll to wakeup-driven draining,
// so v5 latency rows were measured under a different scheduler. Version 7
// moved the schema here and added the workload campaign columns: scenario
// and workload_seed (the replay key), offered_per_sec and p999_ms (the
// open-loop SLO pair — latency is measured from the intended send time, so
// coordinated omission is impossible), fast_share, and stream_digest (the
// generator's replayability certificate). v6 rows have no scenario column,
// so they would silently alias every scenario onto one key.
const SchemaVersion = 7

// LiveRow is one measured scenario run — a row of a BENCH document.
type LiveRow struct {
	// Scenario names the workload scenario the row measured. benchgate keys
	// rows on it.
	Scenario string `json:"scenario,omitempty"`
	// WorkloadSeed is the generator seed; (Scenario, WorkloadSeed) replays
	// the exact stream this row measured.
	WorkloadSeed int64 `json:"workload_seed,omitempty"`
	// StreamDigest is the FNV-1a certificate of the generated stream: two
	// rows with equal digests consumed bit-identical workloads.
	StreamDigest string `json:"stream_digest,omitempty"`

	Processes int    `json:"processes"`
	Groups    int    `json:"groups"`
	Transport string `json:"transport"`
	ChaosSeed int64  `json:"chaos_seed"`
	// ConflictRate is the fraction of the load tagged into keyed conflict
	// classes: 1.0 is the vanilla total-order run (every pair conflicts),
	// anything below runs the generic variant where the remaining messages
	// are ClassFree and skip the g∩h coordination entirely.
	ConflictRate float64 `json:"conflict_rate"`
	// FsyncMode is the write-ahead-log backing: "mem" (in-memory group
	// commit, the default substrate), "file" (file WAL, fsync on every
	// commit barrier) or "file-nosync" (file WAL, OS buffering only).
	FsyncMode  string `json:"fsync_mode"`
	Multicasts int64  `json:"multicasts"`
	Deliveries int64  `json:"deliveries"`

	// OfferedPerSec is the open-loop offered load: arrivals over the last
	// intended send time. Goodput (MsgsPerSec) below it is backlog.
	OfferedPerSec float64 `json:"offered_per_sec,omitempty"`

	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	// P999Ms is the 99.9th-percentile latency. On scenario rows the whole
	// latency distribution is measured from the intended send time, so a
	// driver that falls behind schedule accrues the backlog here instead of
	// hiding it (no coordinated omission).
	P999Ms             float64 `json:"p999_ms,omitempty"`
	MaxMs              float64 `json:"max_ms"`
	MsgsPerSec         float64 `json:"msgs_per_sec"`
	DeliveriesPerSec   float64 `json:"deliveries_per_sec"`
	Packets            int64   `json:"packets"`
	PacketsPerDelivery float64 `json:"packets_per_delivery"`
	ChaosInjections    uint64  `json:"chaos_injections,omitempty"`
	// FastDeliveries counts deliveries that skipped the pairwise
	// coordination pipeline (generic variant, commuting messages only);
	// FastShare is their fraction of all deliveries.
	FastDeliveries int64   `json:"fast_deliveries,omitempty"`
	FastShare      float64 `json:"fast_share,omitempty"`
	WallMs         float64 `json:"wall_ms"`
	// Batching pipeline shape: mean ops per proposed replog batch and the
	// peak number of outstanding windowed accept rounds in any realm.
	AvgBatchOps     float64 `json:"avg_batch_ops"`
	WindowDepthPeak int64   `json:"window_depth_peak"`
	FwdOps          int64   `json:"fwd_ops,omitempty"`
	RemoteOps       int64   `json:"remote_ops,omitempty"`
	// Wire traffic (tcp transport only): real encoded bytes on the socket,
	// the write loops' coalescing factor, and frames lost to failed flushes.
	WireBytesOut   int64   `json:"wire_bytes_out,omitempty"`
	WireFramesOut  int64   `json:"wire_frames_out,omitempty"`
	WireReconnects int64   `json:"wire_reconnects,omitempty"`
	FramesPerFlush float64 `json:"frames_per_flush,omitempty"`
	WireWriteDrops int64   `json:"wire_write_drops,omitempty"`
	// WAL footprint: mean record payload bytes per append, group-commit
	// barriers, and (file rows) the wall time a fresh process took to
	// replay the finished run's logs.
	WALBytesPerOp float64 `json:"wal_bytes_per_op,omitempty"`
	WALSyncs      int64   `json:"wal_syncs,omitempty"`
	RecoveryMs    float64 `json:"recovery_ms,omitempty"`
	// Scheduler shape: how much stepping work the run's deliveries cost.
	// IdleWork is the idle-CPU proxy — timer wakeups plus version-check-only
	// skipped scans.
	WakeupsPerDelivery float64 `json:"wakeups_per_delivery,omitempty"`
	StepsPerDelivery   float64 `json:"steps_per_delivery,omitempty"`
	Scans              int64   `json:"scans,omitempty"`
	IdleWork           int64   `json:"idle_work,omitempty"`
}

// LiveDoc is a BENCH document: a schema version, a generation stamp and the
// measured rows.
type LiveDoc struct {
	Version   int       `json:"version"`
	Generated string    `json:"generated"`
	Runs      []LiveRow `json:"runs"`
}

// NewDoc returns an empty document at the current schema version, stamped
// now.
func NewDoc() LiveDoc {
	return LiveDoc{
		Version:   SchemaVersion,
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
}

// FromReport fills the report-derived columns of a row: counts, latency
// quantiles (from WallLatency), throughput, and every substrate counter the
// run measured. Identity columns (scenario, transport, seeds, conflict rate,
// fsync mode) and the open-loop columns are the caller's to set — the report
// does not know them.
func FromReport(rep obs.RunReport) LiveRow {
	row := LiveRow{
		Processes:  rep.Processes,
		Groups:     rep.Groups,
		Multicasts: rep.Multicasts,
		Deliveries: rep.Deliveries,
		WallMs:     float64(rep.Wall) / float64(time.Millisecond),
	}
	if rep.WallLatency != nil {
		row.P50Ms = rep.WallLatency.P50
		row.P90Ms = rep.WallLatency.P90
		row.P99Ms = rep.WallLatency.P99
		row.P999Ms = rep.WallLatency.P999
		row.MaxMs = rep.WallLatency.Max
	}
	if rep.Wall > 0 {
		row.MsgsPerSec = float64(rep.Multicasts) / rep.Wall.Seconds()
		row.DeliveriesPerSec = float64(rep.Deliveries) / rep.Wall.Seconds()
	}
	if rep.Net != nil {
		row.Packets = rep.Net.Packets
	}
	if ppd, ok := rep.PacketsPerDelivery(); ok {
		row.PacketsPerDelivery = ppd
	}
	row.ChaosInjections = rep.Chaos.Injections()
	row.AvgBatchOps = rep.Replog.MeanBatchOps()
	if rep.Replog != nil {
		row.FwdOps = rep.Replog.FwdOps
		row.RemoteOps = rep.Replog.RemoteOps
	}
	if rep.Paxos != nil {
		row.WindowDepthPeak = rep.Paxos.WindowDepthPeak
	}
	if rep.Conflict != nil {
		row.FastDeliveries = rep.Conflict.FastDeliveries
		if rep.Deliveries > 0 {
			row.FastShare = float64(rep.Conflict.FastDeliveries) / float64(rep.Deliveries)
		}
	}
	if rep.Wire != nil {
		row.WireBytesOut = rep.Wire.BytesOut
		row.WireFramesOut = rep.Wire.FramesEncoded
		row.WireReconnects = rep.Wire.Reconnects
		row.FramesPerFlush = rep.Wire.FramesPerFlush()
		row.WireWriteDrops = rep.Wire.WriteDrops
	}
	if rep.WAL != nil {
		row.WALBytesPerOp = rep.WAL.BytesPerAppend()
		row.WALSyncs = rep.WAL.Syncs
		row.RecoveryMs = float64(rep.WAL.RecoveryNanos) / float64(time.Millisecond)
	}
	if rep.Sched != nil {
		row.Scans = rep.Sched.Scans
		row.IdleWork = rep.Sched.TimerWakeups + rep.Sched.SkippedScans
		if rep.Deliveries > 0 {
			row.WakeupsPerDelivery = float64(rep.Sched.NotifyWakeups+rep.Sched.TimerWakeups) / float64(rep.Deliveries)
			row.StepsPerDelivery = float64(rep.Sched.Actions) / float64(rep.Deliveries)
		}
	}
	return row
}

// Load reads a BENCH document from disk. It parses any version — callers
// that compare documents must check Version themselves (see CheckVersion),
// because "wrong schema" deserves a clearer error than a parse failure.
func Load(path string) (LiveDoc, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return LiveDoc{}, err
	}
	var doc LiveDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		return LiveDoc{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// CheckVersion errors unless the document carries the current schema
// version, naming the document so the error says which side is stale.
func (d LiveDoc) CheckVersion(path string) error {
	if d.Version != SchemaVersion {
		return fmt.Errorf("%s: schema version %d, this binary speaks version %d — cross-schema comparisons are meaningless; regenerate the older document",
			path, d.Version, SchemaVersion)
	}
	return nil
}

// Write marshals the document (indented, trailing newline) to path.
func (d LiveDoc) Write(path string) error {
	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
