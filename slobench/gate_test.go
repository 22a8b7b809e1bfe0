package main

import (
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
)

// shortTrace is a run of two multicasts to g0 = {p0, p1}: m1 delivered at
// both members, m2 only at p0.
func shortTrace() (*check.Trace, *msg.Message, *msg.Message) {
	topo := groups.MustNew(2, groups.NewProcSet(0, 1))
	reg := msg.NewRegistry()
	m1, m2 := reg.New(0, 0, nil), reg.New(0, 0, nil)
	tr := &check.Trace{
		Topo: topo,
		Pat:  failure.NewPattern(2),
		Reg:  reg,
		LocalOrder: map[groups.Process][]msg.ID{
			0: {m1.ID, m2.ID},
			1: {m1.ID},
		},
		Multicast:      map[msg.ID]failure.Time{m1.ID: 0, m2.ID: 0},
		FirstDelivered: map[msg.ID]failure.Time{m1.ID: 1, m2.ID: 1},
	}
	return tr, m1, m2
}

// TestShortfallIsFailedNotViolation checks the gate's split: a multicast
// short of a destination is a failed multicast, and the run stays correct.
func TestShortfallIsFailedNotViolation(t *testing.T) {
	tr, m1, m2 := shortTrace()
	all := check.All(tr, false, false, false)
	if len(all) != 1 || all[0].Property != terminationProperty {
		t.Fatalf("check.All = %v, want one %s violation", all, terminationProperty)
	}
	viol := specViolations(all)
	if len(viol) != 0 {
		t.Fatalf("specViolations kept %v", viol)
	}

	t0 := time.Unix(1000, 0)
	timed := map[int64]sent{int64(m1.ID): {due: t0, dests: 2}, int64(m2.ID): {due: t0, dests: 2}}
	log := []delivery{{int64(m1.ID), t0.Add(time.Millisecond)}, {int64(m1.ID), t0.Add(2 * time.Millisecond)},
		{int64(m2.ID), t0.Add(3 * time.Millisecond)}}
	r := &rep{out: reduce(timed, log, t0.Add(time.Second)), viol: viol}
	// Three samples are too few for a p50: summarize reports 0 instead of
	// failing the system run.
	res, err := summarize(r)
	if err != nil {
		t.Fatalf("summarize: %v", err)
	}
	sum, problems := gate([]runResult{res})
	if !sum.Correct || len(problems) != 0 {
		t.Errorf("gate: correct %v, problems %v; want correct", sum.Correct, problems)
	}
	if sum.Attempted != 2 || sum.Failed != 1 {
		t.Errorf("gate: attempted %d failed %d, want 2 and 1", sum.Attempted, sum.Failed)
	}
	if got := endToEnd([]runResult{res})["delivered_share"].Value; got != 0.5 {
		t.Errorf("delivered_share = %v, want 0.5", got)
	}
}

// TestSpecViolationFailsGate checks that any other violation fails the run.
func TestSpecViolationFailsGate(t *testing.T) {
	tr, m1, _ := shortTrace()
	tr.LocalOrder[1] = []msg.ID{m1.ID, m1.ID} // delivered twice
	viol := specViolations(check.All(tr, false, false, false))
	if len(viol) != 1 {
		t.Fatalf("specViolations = %v, want the integrity violation", viol)
	}
	sum, problems := gate([]runResult{{Attempted: 2, Complete: 2, Violations: viol}})
	if sum.Correct || len(problems) != 1 {
		t.Errorf("gate: correct %v, problems %v; want one problem", sum.Correct, problems)
	}
}
