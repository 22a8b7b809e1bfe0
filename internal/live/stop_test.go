package live

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/paxos"
	"repro/internal/storage"
)

// lateWAL counts the appends that reach a WAL after the owning System's
// Stop has returned. Once stopping is set every append also stalls for a
// moment, so a goroutine still writing while Stop runs is still writing
// when it returns.
type lateWAL struct {
	storage.WAL
	stopping, stopped *atomic.Bool
	late              *atomic.Int64
}

func (w lateWAL) Append(rec storage.Record) error {
	if w.stopped.Load() {
		w.late.Add(1)
	}
	if w.stopping.Load() {
		time.Sleep(time.Millisecond)
	}
	return w.WAL.Append(rec)
}

// TestStopQuiescesWAL stops runs in the middle of a burst, while paxos
// loops and replog submit loops are still writing their WALs. Stop must not
// return before every one of them has exited: a WAL append after Stop
// returns would race a caller that closes or inspects the log. Whether a
// loop is still busy when the stepping goroutines finish is a matter of
// scheduling, so the scenario runs several times.
func TestStopQuiescesWAL(t *testing.T) {
	for run := 0; run < 5; run++ {
		t.Run(fmt.Sprintf("run=%d", run), func(t *testing.T) {
			topo := chainTopo(t)
			var stopping, stopped atomic.Bool
			var late atomic.Int64
			sys := NewSystem(topo, failure.NewPattern(topo.NumProcesses()), net.New(topo.NumProcesses()), Config{
				Storage: func(groups.Process) storage.WAL {
					return lateWAL{WAL: storage.NewMem(), stopping: &stopping, stopped: &stopped, late: &late}
				},
			})
			sys.Start()
			for i := 0; i < 600; i++ {
				src := groups.Process(2 * (i % 3)) // 0, 2, 4: a member of g0, g1, g2
				sys.Multicast(src, groups.GroupID(i%3), []byte{byte(i)})
			}
			time.Sleep(5 * time.Millisecond)
			stopping.Store(true)
			sys.Stop()
			stopped.Store(true)

			// A straggler is a loop finishing its backlog or a proposer
			// finishing a round: give it several phase deadlines to show up.
			time.Sleep(5 * paxos.DefaultConfig().PhaseDeadline)
			if n := late.Load(); n > 0 {
				t.Fatalf("%d WAL appends after Stop returned", n)
			}
		})
	}
}
