// Command loadsim is the repository's one live-load runner: it drives named
// workload scenarios (internal/workload) against the live backend and
// reduces each run to one SLO row of the versioned BENCH schema
// (internal/benchfmt) that cmd/benchgate gates keyed by scenario name.
//
// Load is offered open-loop: every arrival has an intended send time fixed
// by (scenario, seed) before the run starts, and latency is measured from
// that intended time — a system that falls behind schedule accrues the
// backlog in its own tail instead of throttling the load that measures it
// (no coordinated omission). Identical (scenario, seed) reruns consume
// bit-identical streams; the stream_digest column certifies it.
//
// Two committed scenario sets are gated in CI, each against its baseline:
//
//	loadsim -scenarios steady,hot-group -json BENCH_scenarios.json
//	benchgate live -old benchmarks/baselines/BENCH_scenarios.json -new BENCH_scenarios.json
//	loadsim -scenario-file benchmarks/sweep.json -json BENCH_live.json
//	benchgate live -old benchmarks/baselines/BENCH_live.json -new BENCH_live.json
//
// The second is the topology sweep: bursts over chain topologies of growing
// size, each with a chaos-seeded twin (chaos_seed), a commuting-mix row
// (conflict_rate < 1, generic variant) and two durability rows on real
// file write-ahead logs (wal: file / file-nosync) whose recovery_ms column
// is a fresh process replaying the run's logs.
//
// -scenarios picks entries by name ("steady,hot-group"), -scenario-file
// replaces the built-in catalog with a JSON list, -load-scale stretches or
// shrinks every scenario's arrival count (soak vs smoke), -seed replays a
// different stream, and -cpuprofile writes a pprof CPU profile of the whole
// campaign. Soak scenarios run with the replog applied-op journal armed and
// diff every replica's journal against its own paxos decision snapshot on
// exit — the ROADMAP item-3 flake hunt rides along with every campaign.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/benchfmt"
	"repro/internal/cliconf"
	"repro/internal/workload"
)

func main() {
	cc := cliconf.Bind(flag.CommandLine, cliconf.ToolLoadsim)
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this path")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "loadsim: unexpected arguments %q (scenarios are picked with -scenarios)\n", flag.Args())
		os.Exit(2)
	}
	if err := profiled(*cpuProfile, func() error { return campaign(os.Stdout, *cc) }); err != nil {
		fmt.Fprintf(os.Stderr, "loadsim: %v\n", err)
		os.Exit(1)
	}
}

// profiled runs fn under a CPU profile written to path ("" runs it bare).
func profiled(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	defer pprof.StopCPUProfile()
	return fn()
}

// campaign resolves the scenario list and runs it in order, printing the
// SLO table as rows complete so an unattended log shows progress. Any
// scenario failure (delivery timeout, journal diff) aborts the campaign
// with an error — a partial BENCH document would gate green on whatever
// happened to finish.
func campaign(w *os.File, cc cliconf.Common) error {
	catalog := workload.Catalog()
	if cc.ScenarioFile != "" {
		var err error
		catalog, err = workload.ReadFile(cc.ScenarioFile)
		if err != nil {
			return err
		}
	}
	scs, err := workload.Select(catalog, cc.Scenarios)
	if err != nil {
		return err
	}
	doc := benchfmt.NewDoc()
	fmt.Fprintf(w, "%-20s %5s %4s %-4s %9s %9s | %8s %8s %8s | %8s %8s %5s | %6s %-11s %8s\n",
		"scenario", "n", "k", "tpt", "offered/s", "goodput/s", "p50 ms", "p99 ms", "p999 ms", "pkts/dlv", "fast", "soak",
		"chaos", "wal", "recov ms")
	for _, sc := range scs {
		sc = sc.Scale(cc.LoadScale)
		row, err := runScenario(sc, cc.Seed, cc.Transport, cc.Timeout)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		doc.Runs = append(doc.Runs, row)
		soak := ""
		if sc.Soak {
			soak = "ok"
		}
		fmt.Fprintf(w, "%-20s %5d %4d %-4s %9.0f %9.0f | %8.2f %8.2f %8.2f | %8.1f %8.2f %5s | %6d %-11s %8.2f\n",
			row.Scenario, row.Processes, row.Groups, row.Transport,
			row.OfferedPerSec, row.MsgsPerSec,
			row.P50Ms, row.P99Ms, row.P999Ms,
			row.PacketsPerDelivery, row.FastShare, soak,
			row.ChaosSeed, row.FsyncMode, row.RecoveryMs)
	}
	fmt.Fprintf(w, "\nlatency is measured from each arrival's intended send time (open loop):\n")
	fmt.Fprintf(w, "goodput below offered/s means the backlog went into the tail columns,\n")
	fmt.Fprintf(w, "not into a slowed-down load generator. Replay any row with its\n")
	fmt.Fprintf(w, "(scenario, seed): the stream_digest column certifies the same workload.\n")
	if cc.JSON != "" {
		if err := doc.Write(cc.JSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s (%d scenario rows, schema v%d)\n", cc.JSON, len(doc.Runs), benchfmt.SchemaVersion)
	}
	return nil
}
