package main

import "testing"

// TestWorkloadDefinitions checks workloads.json as the benchmark's gate
// does: every scenario still generates its recorded stream, and every
// workload names a transport and WAL the benchmark can build.
func TestWorkloadDefinitions(t *testing.T) {
	wls, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(wls) < 2 {
		t.Fatalf("%d workloads, want at least 2", len(wls))
	}
	seen := map[string]bool{}
	for _, wl := range wls {
		if seen[wl.Name] {
			t.Errorf("workload %s defined twice", wl.Name)
		}
		seen[wl.Name] = true
		if _, _, err := lookup(wl.Name, refSeconds); err != nil {
			t.Error(err)
		}
		if wl.Transport != "mem" && wl.Transport != "tcp" {
			t.Errorf("%s: transport %q", wl.Name, wl.Transport)
		}
		if wl.WAL != "mem" && wl.WAL != "file-nosync" {
			t.Errorf("%s: wal %q", wl.Name, wl.WAL)
		}
	}
}
