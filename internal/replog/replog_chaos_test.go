package replog

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/paxos"
)

// chaosCluster wires n replicas of one log over the adversarial fabric;
// every paxos node counts its work into the returned block.
func chaosCluster(n int, seed int64) (*chaos.Chaos, []*Replica, *obs.PaxosCounters) {
	c := chaos.Wrap(net.New(n), seed)
	var scope groups.ProcSet
	for p := 0; p < n; p++ {
		scope = scope.Add(groups.Process(p))
	}
	leader := func(groups.Process) groups.Process { return 0 }
	pc := new(obs.PaxosCounters)
	reps := make([]*Replica, n)
	for p := 0; p < n; p++ {
		node := paxos.StartNodeWithConfig(c, groups.Process(p), paxos.Config{Counters: pc})
		reps[p] = NewReplica("LOG", 1, groups.Process(p), node, c, scope, leader)
	}
	return c, reps, pc
}

// localOrders converts replica snapshots into the per-process delivery
// sequences the spec checkers consume: applying the log's operations in
// slot order *is* this substrate's delivery order.
func localOrders(reps []*Replica) map[groups.Process][]msg.ID {
	out := make(map[groups.Process][]msg.ID, len(reps))
	for p, r := range reps {
		for _, d := range r.Snapshot() {
			out[groups.Process(p)] = append(out[groups.Process(p)], d.Msg)
		}
	}
	return out
}

// assertPairwiseOrder runs the internal/check pairwise-ordering checker
// over the replicas' log orders: if some replica applies a before b, no
// replica may apply b before a.
func assertPairwiseOrder(t *testing.T, reps []*Replica) {
	t.Helper()
	tr := &check.Trace{LocalOrder: localOrders(reps)}
	if v := check.PairwiseOrdering(tr); v != nil {
		t.Fatalf("log order violation: %v", v)
	}
}

// TestChaosConcurrentAppendsAgree: concurrent appends from every replica
// under drops, duplication, delay and reorder still funnel into one
// operation order — agreement comes from consensus, not from the fabric.
func TestChaosConcurrentAppendsAgree(t *testing.T) {
	c, reps, _ := chaosCluster(3, 5)
	defer c.Close()
	c.SetFaults(chaos.Faults{
		Drop: 0.08, Dup: 0.08, DelayMax: 150 * time.Microsecond, Reorder: true,
	})

	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, ok := reps[p].Append(logobj.MsgDatum(msg.ID(10*p + i + 1))); !ok {
					t.Errorf("replica %d append %d failed", p, i)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiesce, then fence: one more append per replica walks it through
	// every decided slot.
	c.Quiesce()
	for p := 0; p < 3; p++ {
		if _, ok := reps[p].Append(logobj.MsgDatum(msg.ID(100 + p))); !ok {
			t.Fatalf("fence append failed at replica %d", p)
		}
	}
	for p := 0; p < 3; p++ {
		reps[p].SyncWait(15, 2*time.Second)
	}
	assertPairwiseOrder(t, reps)
	if got := len(reps[0].Snapshot()); got < 12 {
		t.Fatalf("replica 0 has %d items, want >= 12", got)
	}
	if st := c.Stats(); st.DroppedRandom == 0 && st.Duplicated == 0 {
		t.Fatalf("fault mix injected nothing: %+v", st)
	}
}

// TestChaosPartitionedReplicaBlocksThenCatchesUp: a replica the nemesis
// cuts from every quorum must block — its Σ is gone — while staying safe
// (its log remains a prefix of the cluster's), and after heal it both
// completes its pending append and catches up on everything it missed.
func TestChaosPartitionedReplicaBlocksThenCatchesUp(t *testing.T) {
	c, reps, _ := chaosCluster(5, 6)
	defer c.Close()

	if _, ok := reps[0].Append(logobj.MsgDatum(1)); !ok {
		t.Fatalf("seed append failed")
	}
	if !reps[2].SyncWait(1, 2*time.Second) {
		t.Fatalf("replica 2 did not sync the seed append")
	}

	c.Isolate(2)
	blocked := make(chan bool, 1)
	go func() {
		_, ok := reps[2].Append(logobj.MsgDatum(99))
		blocked <- ok
	}()
	select {
	case ok := <-blocked:
		t.Fatalf("isolated replica's append returned %v without a quorum", ok)
	case <-time.After(30 * time.Millisecond):
		// Blocked, as it must be.
	}

	// The majority keeps appending; the isolated replica must not see any
	// of it (safety: its log stays a frozen prefix).
	for i := msg.ID(2); i <= 4; i++ {
		if _, ok := reps[0].Append(logobj.MsgDatum(i)); !ok {
			t.Fatalf("majority append %d failed", i)
		}
	}
	if got := reps[2].Applied(); got > 1 {
		t.Fatalf("isolated replica applied %d operations while cut off", got)
	}
	assertPairwiseOrder(t, reps)

	c.Heal()
	select {
	case ok := <-blocked:
		if !ok {
			t.Fatalf("pending append failed after heal")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("pending append still blocked after heal")
	}
	// Catch-up: the healed replica reaches the full history (4 majority
	// appends + its own).
	if !reps[2].SyncWait(5, 2*time.Second) {
		t.Fatalf("healed replica did not catch up: applied %d", reps[2].Applied())
	}
	for p := 0; p < 5; p++ {
		reps[p].SyncWait(5, 2*time.Second)
	}
	assertPairwiseOrder(t, reps)
	if reps[2].Pos(logobj.MsgDatum(99)) == 0 {
		t.Fatalf("healed replica lost its own append")
	}
}

// TestIsolatedLeaderHolesRefill drives the hole path on purpose: the leader
// holds the lease, then is cut off from every peer for several phase
// deadlines while every replica bursts appends. The leader's windowed
// rounds time out and leave holes, while followers whose forwarding
// patience ran out propose under higher ballots. After the heal the leader
// must fill its holes — re-fired under its lease, or, once NACKed, at depth
// 1 with a re-acquired lease — so every append completes and every replica
// applies the same log.
func TestIsolatedLeaderHolesRefill(t *testing.T) {
	const n, perReplica = 3, 6
	c, reps, pc := chaosCluster(n, 7)
	defer c.Close()
	if _, ok := reps[0].Append(logobj.MsgDatum(1)); !ok {
		t.Fatalf("lease-acquiring append failed")
	}

	c.Isolate(0)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		for i := 0; i < perReplica; i++ {
			d := logobj.MsgDatum(msg.ID(100*(p+1) + i))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, ok := reps[p].Append(d); !ok {
					t.Errorf("replica %d: append %v failed", p, d)
				}
			}()
		}
	}
	time.Sleep(4 * paxos.DefaultConfig().PhaseDeadline)
	c.Heal()
	wg.Wait()

	total := 1 + n*perReplica
	for p, r := range reps {
		if !r.SyncWait(total, 5*time.Second) {
			t.Fatalf("replica %d applied %d of %d ops", p, r.Applied(), total)
		}
	}
	want := reps[0].Snapshot()
	if len(want) != total {
		t.Fatalf("log holds %d items, want %d", len(want), total)
	}
	for p, r := range reps[1:] {
		if got := r.Snapshot(); !slices.Equal(got, want) {
			t.Fatalf("replica %d log %v differs from leader's %v", p+1, got, want)
		}
	}
	if pc.WindowFailures.Load() == 0 {
		t.Fatalf("no windowed round failed: the isolation never opened a hole")
	}
}
