package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/wire"
)

// traceEvent is one Chrome trace-event record (the JSON format chrome://
// tracing and Perfetto load). Client spans are async events ("b"/"e") that
// share their multicast's ID; per-process wrapper spans are complete
// events ("X") on the process's row.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes a traced system run's spans to path: per multicast a
// request span (intended send to last delivery) with a child for the
// MulticastClassed call and one per destination delivery, all sharing the
// message ID; per process the wrapped Send/Broadcast, WAL Append and WAL
// Sync calls, on row p+1 (row 0 is the client).
func writeTrace(path string, r *rep) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev)
	}
	kinds := [...]string{spanSend: "Send", spanBroadcast: "Broadcast", spanAppend: "WAL.Append", spanSync: "WAL.Sync"}
	epoch := r.probe.epoch
	us := func(t time.Time) float64 { return float64(t.Sub(epoch)) / 1e3 }
	for _, s := range r.spans {
		id := fmt.Sprint(s.id)
		async := func(name string, from, to time.Time, args map[string]any) error {
			if err := emit(traceEvent{Name: name, Cat: "multicast", Ph: "b", Ts: us(from), ID: id, Args: args}); err != nil {
				return err
			}
			return emit(traceEvent{Name: name, Cat: "multicast", Ph: "e", Ts: us(to), ID: id})
		}
		last := s.callEnd
		for _, d := range s.delivered {
			if d.at.After(last) {
				last = d.at
			}
		}
		if err := async("request", s.due, last, map[string]any{"msg": s.id}); err != nil {
			return err
		}
		if err := async("MulticastClassed", s.callAt, s.callEnd, nil); err != nil {
			return err
		}
		for _, d := range s.delivered {
			if err := async(fmt.Sprintf("deliver p%d", d.p), s.callEnd, d.at, nil); err != nil {
				return err
			}
		}
	}
	for i := range r.probe.procs {
		for _, s := range r.probe.procs[i].spans {
			name := kinds[s.kind]
			if s.kind == spanSend || s.kind == spanBroadcast {
				name += " " + wire.TypeName(s.typ)
			}
			ev := traceEvent{Name: name, Cat: "layer", Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Tid: int(s.proc) + 1}
			if err := emit(ev); err != nil {
				return err
			}
		}
	}
	if n := r.probe.dropped.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "trace: dropped %d spans past the cap of %d\n", n, spanCap)
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
