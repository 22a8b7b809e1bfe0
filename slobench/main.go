// Command slobench is the repository's benchmark. It drives the live
// backend open-loop from internal/workload arrival streams, one fresh
// system per child process, and prints end-to-end SLO metrics (--trace 0)
// or per-layer metrics (--trace 1) for one named workload:
//
//	bash slobench/run.sh --workload steady --seed 7 --seconds 10 --trace 0
//
// Every run passes a correctness gate outside the timed window: the
// workload definition still generates the stream whose workload.Digest is
// recorded for it, and the specification checker finds no violation.
// Multicasts not delivered everywhere by the drain deadline count as
// failed. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4000, "failed": 0, "metrics": {"p50_ms": {"value": 2.1, "unit": "ms"}, ...}}
//
// A run that fails the gate prints why on standard error and exits 1.
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"repro/internal/workload"
)

// refSeconds is the run length the workload scenarios are sized for: their
// arrival counts are per system run at this length, and other lengths scale
// them proportionally.
const refSeconds = 20

// buildDir holds everything the benchmark writes inside the checkout.
const buildDir = ".bench_build"

// tmpDir holds a child's file WALs; the parent removes it after each child.
var tmpDir = filepath.Join(buildDir, "tmp")

//go:embed workloads.json
var workloadsJSON []byte

// refSeed is the seed whose stream digest workloads.json records.
const refSeed = 1

// Workload is one benchmark workload: a scenario plus how it is driven.
type Workload struct {
	Name string `json:"name"`
	// Transport is "mem" (net.New) or "tcp" (wire.NewFabric loopback).
	Transport string `json:"transport"`
	// WAL is "mem" (storage.NewMem) or "file-nosync" (storage.OpenFile;
	// every Sync writes the records to the OS but does not fsync them).
	WAL string `json:"wal"`
	// RefDigest certifies the scenario: workload.Digest of (Scenario,
	// refSeed) must equal it, or the generator or the definition changed.
	RefDigest string `json:"ref_digest"`
	// SystemRuns is the number of fresh systems one run drives in
	// sequence; refSeconds is split evenly over them.
	SystemRuns int `json:"system_runs"`
	// Scenario.Count is the arrivals of one system run at refSeconds.
	Scenario workload.Scenario `json:"scenario"`
}

func loadWorkloads() ([]Workload, error) {
	var wls []Workload
	dec := json.NewDecoder(bytes.NewReader(workloadsJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wls); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for _, wl := range wls {
		if err := wl.Scenario.Validate(); err != nil {
			return nil, err
		}
		// A traced run needs at least one traced and one untraced system run.
		if wl.SystemRuns < 2 {
			return nil, fmt.Errorf("workloads.json: %s: system_runs %d, need at least 2", wl.Name, wl.SystemRuns)
		}
	}
	return wls, nil
}

// repSeed derives the seed of system run i from the run's seed.
func repSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", refSeconds, "timed seconds per run, split over the workload's system runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	sysRun := flag.Int("system-run", -1, "internal: run only this system run and print its result as JSON")
	flag.Parse()
	var err error
	if *sysRun >= 0 {
		err = child(*name, *seed, *seconds, *trace == 1, *sysRun)
	} else {
		err = parent(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "slobench: %v\n", err)
		os.Exit(1)
	}
}

// lookup finds a workload and checks its definition (gate 1: the definition
// still generates the recorded stream), returning it with its scenario
// scaled to the run length.
func lookup(name string, seconds int) (*Workload, workload.Scenario, error) {
	wls, err := loadWorkloads()
	if err != nil {
		return nil, workload.Scenario{}, err
	}
	var wl *Workload
	var names []string
	for i := range wls {
		names = append(names, wls[i].Name)
		if wls[i].Name == name {
			wl = &wls[i]
		}
	}
	if wl == nil {
		return nil, workload.Scenario{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	if seconds < 1 {
		return nil, workload.Scenario{}, fmt.Errorf("--seconds %d must be >= 1", seconds)
	}
	if d, err := workload.Digest(wl.Scenario, refSeed); err != nil {
		return nil, workload.Scenario{}, err
	} else if d != wl.RefDigest {
		return nil, workload.Scenario{}, fmt.Errorf("gate: workload %s digest at ref seed %d is %s, recorded %s: the generator or the definition changed",
			wl.Name, refSeed, d, wl.RefDigest)
	}
	return wl, wl.Scenario.Scale(float64(seconds) / refSeconds), nil
}

// tracedRun says whether system run i of a run is traced: a traced run
// alternates untraced and traced system runs, so the tracing overhead is
// measured on the same kind of input in the same run.
func tracedRun(trace bool, i int) bool { return trace && i%2 == 1 }

// parent runs the workload's system runs one after another, each in a
// fresh child process so no run inherits another's heap or goroutines, then
// applies the correctness gate and prints the metrics.
func parent(name string, seed int64, seconds int, trace bool) error {
	wl, _, err := lookup(name, seconds)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	var runs []runResult
	for i := 0; i < wl.SystemRuns; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
			"--trace", traceArg, "--system-run", fmt.Sprint(i))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if rmErr := os.RemoveAll(tmpDir); err == nil {
			err = rmErr
		}
		var r runResult
		if err == nil {
			err = json.Unmarshal(out, &r)
		}
		if err != nil {
			return fmt.Errorf("system run %d: %w", i, err)
		}
		runs = append(runs, r)
	}

	res, problems := gate(runs)
	if trace {
		if res.Metrics, err = layerMetrics(runs); err != nil {
			return err
		}
	} else {
		res.Metrics = endToEnd(runs)
	}
	printTable(wl.Name, seed, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "gate: %s\n", p)
		}
		return fmt.Errorf("correctness gate failed (%d problems)", len(problems))
	}
	return nil
}

// child performs system run i and prints its result as one JSON object.
// The first traced system run of a run also writes its spans to
// buildDir/trace/<workload>.json; later ones record spans the same way, so
// every traced system run pays the same tracing cost, but do not write them.
func child(name string, seed int64, seconds int, trace bool, i int) error {
	wl, sc, err := lookup(name, seconds)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	traced := tracedRun(trace, i)
	r, err := runRep(*wl, sc, repSeed(seed, i), traced, tmpDir)
	if err != nil {
		return fmt.Errorf("system run %d: %w", i, err)
	}
	res, err := summarize(r)
	if err != nil {
		return fmt.Errorf("system run %d: %w", i, err)
	}
	v := res.Values
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(os.Stderr, "system run %d (%s): seed %d, %d/%d complete, p50 %.2fms, p99 %.2fms, setup %.1fms, window %.2fs, cpu %.2fs, heap %.1fMB, check %.2fs\n",
		i, kind, repSeed(seed, i), r.out.complete, r.out.attempted,
		v["p50_ms"], v["live.latency_p99_ms"], r.setup.Seconds()*1e3, r.window.Seconds(), r.cpu.Seconds(), r.heapMB, r.check.Seconds())
	if traced && i == 1 {
		path := filepath.Join(buildDir, "trace", wl.Name+".json")
		if err := writeTrace(path, r); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// gate totals the system runs' multicasts and collects their spec
// violations (gate 2). A multicast short of a destination is failed, not a
// problem: the run stays correct and reports it in failed and
// delivered_share.
func gate(runs []runResult) (result, []string) {
	var problems []string
	var res result
	for i, r := range runs {
		for _, v := range r.Violations {
			problems = append(problems, fmt.Sprintf("system run %d: %s", i, v))
		}
		res.Attempted += r.Attempted
		res.Failed += r.Attempted - r.Complete
	}
	res.Correct = len(problems) == 0
	return res, problems
}

// printTable prints the metrics as an aligned table on standard output,
// before the JSON line.
func printTable(name string, seed int64, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("workload %s seed %d: %d attempted, %d failed, correct=%v\n", name, seed, res.Attempted, res.Failed, res.Correct)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Printf("  %-40s %14.4f %s\n", k, m.Value, m.Unit)
	}
}
