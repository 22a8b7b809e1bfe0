package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// shortRun drives a small traced mem run through the benchmark's own path.
func shortRun(t *testing.T, sc workload.Scenario) *rep {
	t.Helper()
	wl := Workload{Name: sc.Name, Transport: "mem", WAL: "mem"}
	r, err := runRep(wl, sc, 7, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.viol) > 0 {
		t.Fatalf("violations: %v", r.viol)
	}
	if r.out.complete != sc.Count {
		t.Fatalf("%d of %d multicasts complete", r.out.complete, sc.Count)
	}
	return r
}

var shortScenario = workload.Scenario{
	Name:     "short",
	Topo:     workload.TopoSpec{Kind: workload.TopoChain, Groups: 3},
	Arrivals: workload.ArrivalsPoisson,
	Rate:     500, Count: 60,
	ConflictRate: 1,
}

func TestProbedTransportMatchesReport(t *testing.T) {
	r := shortRun(t, shortScenario)
	net := r.report.Net
	if net == nil {
		t.Fatal("Report().Net is nil: the wrapper did not forward obs.NetReporter")
	}
	total := r.probe.packets()
	if total == 0 || total != net.Packets+net.OverflowDrops {
		t.Errorf("wrapper counted %d packets, Report().Net has %d sent + %d overflow", total, net.Packets, net.OverflowDrops)
	}
	var sum int64
	for i := range r.probe.byType {
		sum += r.probe.byType[i].Load()
	}
	if sum != total {
		t.Errorf("per-type counts sum to %d, total %d", sum, total)
	}
	if r.report.Wire != nil {
		t.Errorf("mem transport reported wire counters: %+v", r.report.Wire)
	}
}

func TestProbedWALMatchesReport(t *testing.T) {
	r := shortRun(t, shortScenario)
	appends, syncs, bytes, _ := r.probe.walTotals()
	wal := r.report.WAL
	if wal == nil {
		t.Fatal("Report().WAL is nil")
	}
	if appends == 0 || appends != wal.Appends || syncs != wal.Syncs || bytes != wal.Bytes {
		t.Errorf("wrapper appends/syncs/bytes %d/%d/%d, Report().WAL %d/%d/%d",
			appends, syncs, bytes, wal.Appends, wal.Syncs, wal.Bytes)
	}
}

func TestLayerMetricsAndTrace(t *testing.T) {
	sc := shortScenario
	sc.Count = 1200 // enough samples for the pooled p99s
	sc.Rate = 2000
	wl := Workload{Name: sc.Name, Transport: "mem", WAL: "mem"}
	var runs []runResult
	var traced *rep
	for i := 0; i < 2; i++ {
		r, err := runRep(wl, sc, int64(i), tracedRun(true, i), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res, err := summarize(r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Traced != (i == 1) {
			t.Fatalf("system run %d traced = %v", i, res.Traced)
		}
		runs = append(runs, res)
		if res.Traced {
			traced = r
		}
	}
	m, err := layerMetrics(runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(layerUnits) {
		t.Errorf("%d per-layer metrics, want %d", len(m), len(layerUnits))
	}
	for _, name := range []string{"net.packets_per_delivery", "paxos.decisions_per_delivery", "storage.appends_per_delivery",
		"core.scans_per_delivery", "live.submit_us_p99", "storage.sync_us_p99", "runtime.mallocs_per_delivery"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
	var byType float64
	for _, name := range append(packetTypes, "other") {
		byType += m["net.packets_per_delivery."+name].Value
	}
	if d := byType - m["net.packets_per_delivery"].Value; d > 1e-9 || d < -1e-9 {
		t.Errorf("per-type packets per delivery sum to %v, total %v", byType, m["net.packets_per_delivery"].Value)
	}
	share := 0.0
	for _, l := range cpuLayers {
		share += m[l+".cpu_share"].Value
	}
	if share <= 0 || share > 1+1e-9 {
		t.Errorf("cpu shares sum to %v", share)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, traced); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
	}
	if names["request"] != 2*sc.Count || names["MulticastClassed"] != 2*sc.Count {
		t.Errorf("request/submit begin+end events: %d/%d, want %d", names["request"], names["MulticastClassed"], 2*sc.Count)
	}
	if names["WAL.Sync"] == 0 || names["Send paxos.AcceptReq"]+names["Broadcast paxos.AcceptReq"] == 0 {
		t.Errorf("missing per-process spans: %v", names)
	}
}
