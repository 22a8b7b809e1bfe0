package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/cliconf"
	"repro/internal/workload"
)

// cliconfFor is the parsed-flag state of a default campaign over a scenario
// file, writing its document to out.
func cliconfFor(scFile, out string) cliconf.Common {
	return cliconf.Common{
		Scenarios:    "all",
		ScenarioFile: scFile,
		LoadScale:    1,
		Transport:    "mem",
		JSON:         out,
		Seed:         1,
		Timeout:      60 * time.Second,
	}
}

// tinySteady is a fast steady scenario for end-to-end runs under -short.
func tinySteady() workload.Scenario {
	return workload.Scenario{
		Name:     "tiny",
		Topo:     workload.TopoSpec{Kind: workload.TopoChain, Groups: 3},
		Arrivals: workload.ArrivalsPoisson,
		Rate:     400, Count: 40,
		ConflictRate: 1,
	}
}

// TestRunScenarioProducesSLORow runs a tiny scenario end to end against the
// live backend and checks the row: identity columns, the replay
// certificate, and an open-loop latency summary covering every delivery.
func TestRunScenarioProducesSLORow(t *testing.T) {
	sc := tinySteady()
	row, err := runScenario(sc, 7, "mem", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if row.Scenario != "tiny" || row.WorkloadSeed != 7 || row.Transport != "mem" {
		t.Fatalf("identity columns: %+v", row)
	}
	if row.Processes != 7 || row.Groups != 3 {
		t.Fatalf("topology columns: n=%d k=%d, want 7/3", row.Processes, row.Groups)
	}
	if row.Multicasts != int64(sc.Count) {
		t.Fatalf("multicasts %d, want %d", row.Multicasts, sc.Count)
	}
	if row.Deliveries < row.Multicasts {
		t.Fatalf("deliveries %d < multicasts %d", row.Deliveries, row.Multicasts)
	}
	want, err := workload.Digest(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if row.StreamDigest != want {
		t.Fatalf("stream digest %s, want %s", row.StreamDigest, want)
	}
	if row.OfferedPerSec <= 0 {
		t.Fatalf("offered rate not recorded: %+v", row)
	}
	if row.P50Ms <= 0 || row.P999Ms < row.P99Ms || row.P99Ms < row.P50Ms || row.MaxMs < row.P999Ms {
		t.Fatalf("latency summary out of order: p50=%v p99=%v p999=%v max=%v",
			row.P50Ms, row.P99Ms, row.P999Ms, row.MaxMs)
	}
}

// TestRunScenarioReplaysIdenticalStream pins the campaign-level determinism
// claim: two runs of the same (scenario, seed) carry the same digest and
// multicast count; a different seed moves the digest.
func TestRunScenarioReplaysIdenticalStream(t *testing.T) {
	sc := tinySteady()
	a, err := runScenario(sc, 3, "mem", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runScenario(sc, 3, "mem", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.StreamDigest != b.StreamDigest || a.Multicasts != b.Multicasts {
		t.Fatalf("same (scenario, seed) reran a different stream: %s/%d vs %s/%d",
			a.StreamDigest, a.Multicasts, b.StreamDigest, b.Multicasts)
	}
	c, err := runScenario(sc, 4, "mem", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c.StreamDigest == a.StreamDigest {
		t.Fatalf("seed 4 replayed seed 3's stream: %s", c.StreamDigest)
	}
}

// TestRunScenarioSoakJournal runs a soak scenario (generic mix, journal
// armed) end to end: the journal diff must pass and the fast-path share
// must be visible in the row.
func TestRunScenarioSoakJournal(t *testing.T) {
	sc := workload.Scenario{
		Name:     "tiny-soak",
		Topo:     workload.TopoSpec{Kind: workload.TopoChain, Groups: 3},
		Arrivals: workload.ArrivalsPoisson,
		Rate:     400, Count: 60,
		ConflictRate: 0.3,
		Soak:         true,
	}
	row, err := runScenario(sc, 5, "mem", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if row.ConflictRate != 0.3 {
		t.Fatalf("conflict rate column %v, want 0.3", row.ConflictRate)
	}
	if row.FastShare <= 0 {
		t.Fatalf("commuting mix produced no fast deliveries: %+v", row)
	}
}

// TestCampaignWritesGateableDoc runs a two-scenario campaign through the
// top-level driver via a scenario file and checks the emitted document is
// schema-current with one keyed row per scenario.
func TestCampaignWritesGateableDoc(t *testing.T) {
	dir := t.TempDir()
	scFile := filepath.Join(dir, "campaign.json")
	out := filepath.Join(dir, "out.json")
	const scenarios = `[
	  {"name": "a", "topo": {"kind": "chain", "groups": 3}, "arrivals": "poisson",
	   "rate": 400, "count": 30, "conflict_rate": 1},
	  {"name": "b", "topo": {"kind": "chain", "groups": 3}, "arrivals": "fixed",
	   "rate": 400, "count": 30, "conflict_rate": 1}
	]`
	if err := os.WriteFile(scFile, []byte(scenarios), 0o644); err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	cc := cliconfFor(scFile, out)
	if err := campaign(null, cc); err != nil {
		t.Fatal(err)
	}
	doc, err := benchfmt.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.CheckVersion(out); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 2 || doc.Runs[0].Scenario != "a" || doc.Runs[1].Scenario != "b" {
		t.Fatalf("document rows: %+v", doc.Runs)
	}
}

// burst is a 16-arrival burst on the smallest chain, the shape of the
// committed topology sweep's rows.
func burst(name string) workload.Scenario {
	return workload.Scenario{
		Name:     name,
		Topo:     workload.TopoSpec{Kind: workload.TopoChain, Groups: 1},
		Arrivals: workload.ArrivalsFixed,
		Rate:     1e6, Count: 16,
		ConflictRate: 1,
	}
}

// TestRunScenarioFileWAL runs a durability row: real file logs written
// without fsync, replayed after the run. The row must carry the WAL
// footprint and a measured recovery, and the temp dir must be gone.
func TestRunScenarioFileWAL(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	sc := burst("durable")
	sc.WAL = workload.WALFileNoSync
	row, err := runScenario(sc, 1, "mem", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if row.FsyncMode != workload.WALFileNoSync {
		t.Fatalf("fsync_mode %q, want %q", row.FsyncMode, workload.WALFileNoSync)
	}
	if row.RecoveryMs <= 0 || row.WALBytesPerOp <= 0 {
		t.Fatalf("durability columns not measured: recovery_ms=%v wal_bytes_per_op=%v",
			row.RecoveryMs, row.WALBytesPerOp)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("WAL temp dir left behind: %v", left)
	}
}

// TestRunScenarioChaos runs a chaos row: the nemesis must actually inject
// faults into the burst's traffic, and the run must still deliver fully.
func TestRunScenarioChaos(t *testing.T) {
	sc := burst("chaotic")
	sc.ChaosSeed = 3
	row, err := runScenario(sc, 1, "mem", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if row.ChaosSeed != 3 || row.ChaosInjections == 0 {
		t.Fatalf("chaos row: seed %d, %d injections", row.ChaosSeed, row.ChaosInjections)
	}
	if row.FsyncMode != workload.WALMem {
		t.Fatalf("fsync_mode %q, want mem", row.FsyncMode)
	}
	if row.Deliveries < row.Multicasts || row.Multicasts != int64(sc.Count) {
		t.Fatalf("incomplete delivery: %d multicasts, %d deliveries", row.Multicasts, row.Deliveries)
	}
}
