package main

import (
	"fmt"
	"io"

	"repro/internal/benchfmt"
)

// microGate compares candidate micro-benchmark output to the baseline and
// reports whether any gate failed.
func microGate(w io.Writer, oldPath, newPath string, alpha, ratioMax float64) (failed bool, err error) {
	if oldPath == "" || newPath == "" {
		return false, fmt.Errorf("micro: -old and -new are required")
	}
	old, err := parseBench(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := parseBench(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-40s %12s %12s %8s %8s  %s\n",
		"benchmark", "old ns/op", "new ns/op", "ratio", "p", "verdict")
	for _, name := range sortedNames(old, cur) {
		o, n := old[name], cur[name]
		switch {
		case o == nil:
			fmt.Fprintf(w, "%-40s %12s %12.1f %8s %8s  new (no baseline)\n",
				name, "-", median(n.NsPerOp), "-", "-")
			continue
		case n == nil:
			fmt.Fprintf(w, "%-40s %12.1f %12s %8s %8s  missing from candidate\n",
				name, median(o.NsPerOp), "-", "-", "-")
			failed = true
			continue
		}
		om, nm := median(o.NsPerOp), median(n.NsPerOp)
		ratio := nm / om
		p := mannWhitneyP(o.NsPerOp, n.NsPerOp)
		verdict := "ok"
		// ns/op: fail only on significant AND large. With too few
		// repetitions for the test (either side < 3), the ratio alone
		// gates — there is no significance to lean on.
		small := len(o.NsPerOp) < 3 || len(n.NsPerOp) < 3
		if ratio > ratioMax && (small || p < alpha) {
			verdict = fmt.Sprintf("FAIL: %.2fx slower (p=%.3f)", ratio, p)
			failed = true
		}
		// allocs/op: machine-independent, any growth fails.
		if oa, ok := o.maxAllocs(); ok {
			if na, ok2 := n.maxAllocs(); ok2 && na > oa {
				verdict = fmt.Sprintf("FAIL: allocs/op %d -> %d", oa, na)
				failed = true
			}
		}
		fmt.Fprintf(w, "%-40s %12.1f %12.1f %8.2f %8.3f  %s\n", name, om, nm, ratio, p, verdict)
	}
	return failed, nil
}

// liveRowKey identifies a live row across documents: the scenario it ran,
// the seed that replays its stream, and the transport it ran over. Every
// other identity column (topology, conflict rate, chaos seed, WAL backing)
// is a property of the scenario.
type liveRowKey struct {
	Scenario     string
	WorkloadSeed int64
	Transport    string
}

func keyOf(r benchfmt.LiveRow) liveRowKey {
	return liveRowKey{Scenario: r.Scenario, WorkloadSeed: r.WorkloadSeed, Transport: r.Transport}
}

// loadLive reads a BENCH document and refuses any schema version this
// binary does not speak — a v6 baseline against a v7 candidate (or the
// reverse) must fail loudly here, not surface as mass row mismatches — and
// any row without a scenario name, which no key could match.
func loadLive(path string) (*benchfmt.LiveDoc, error) {
	d, err := benchfmt.Load(path)
	if err != nil {
		return nil, err
	}
	if err := d.CheckVersion(path); err != nil {
		return nil, err
	}
	if len(d.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	for i, r := range d.Runs {
		if r.Scenario == "" {
			return nil, fmt.Errorf("%s: row %d has no scenario, so it cannot be keyed", path, i)
		}
	}
	return &d, nil
}

// liveGate compares a fresh loadsim document against a baseline. Only
// chaos-free rows gate; packets/delivery is the protocol-cost check and
// deliveries/sec the catastrophic-throughput floor. p99 latency is printed
// next to them but never gates: on a shared runner it is noise-bound.
// Durability rows (fsync_mode != "mem") keep the packets gate — storage
// does not change the wire protocol — but use fileDlvFloor for throughput:
// fsync latency is a property of the runner's disk, and a shared-CI
// runner's can be an order of magnitude worse than the baseline machine's.
func liveGate(w io.Writer, oldPath, newPath string, pktsSlack, dlvFloor, fileDlvFloor float64) (failed bool, err error) {
	if oldPath == "" || newPath == "" {
		return false, fmt.Errorf("live: -old and -new are required")
	}
	old, err := loadLive(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadLive(newPath)
	if err != nil {
		return false, err
	}
	base := make(map[liveRowKey]benchfmt.LiveRow, len(old.Runs))
	for _, r := range old.Runs {
		base[keyOf(r)] = r
	}
	fmt.Fprintf(w, "%-32s %22s %18s %18s  %s\n", "row", "pkts/dlv old->new", "dlv/sec old->new", "p99 ms old->new", "verdict")
	matched := 0
	for _, r := range cur.Runs {
		b, ok := base[keyOf(r)]
		label := fmt.Sprintf("%s seed=%d %s", r.Scenario, r.WorkloadSeed, r.Transport)
		if !ok {
			fmt.Fprintf(w, "%-32s %22s %18s %18s  new row (no baseline)\n", label, "-", "-", "-")
			continue
		}
		matched++
		verdict := "ok"
		if r.ChaosSeed != 0 {
			verdict = "info (chaos row, not gated)"
		} else {
			floor := dlvFloor
			if r.FsyncMode != "" && r.FsyncMode != "mem" {
				floor = fileDlvFloor
			}
			// Replay certificate: two full-length runs of the same (scenario,
			// seed) must consume bit-identical streams. A digest drift with
			// matching counts means the generator changed under the scenario,
			// and every latency delta below is then workload noise.
			if b.StreamDigest != "" && r.StreamDigest != "" &&
				b.Multicasts == r.Multicasts && b.StreamDigest != r.StreamDigest {
				verdict = fmt.Sprintf("FAIL: stream digest %s != baseline %s (generator changed under this scenario?)",
					r.StreamDigest, b.StreamDigest)
				failed = true
			}
			if b.PacketsPerDelivery > 0 && r.PacketsPerDelivery > b.PacketsPerDelivery*pktsSlack {
				verdict = fmt.Sprintf("FAIL: packets/delivery %.1f > %.2fx baseline", r.PacketsPerDelivery, pktsSlack)
				failed = true
			}
			if b.DeliveriesPerSec > 0 && r.DeliveriesPerSec < b.DeliveriesPerSec*floor {
				verdict = fmt.Sprintf("FAIL: deliveries/sec %.0f < %.2fx baseline", r.DeliveriesPerSec, floor)
				failed = true
			}
		}
		fmt.Fprintf(w, "%-32s %10.1f -> %8.1f %8.0f -> %6.0f %8.2f -> %6.2f  %s\n",
			label, b.PacketsPerDelivery, r.PacketsPerDelivery,
			b.DeliveriesPerSec, r.DeliveriesPerSec, b.P99Ms, r.P99Ms, verdict)
	}
	if matched == 0 {
		return false, fmt.Errorf("no candidate row matches any baseline row")
	}
	return failed, nil
}
