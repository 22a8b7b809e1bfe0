package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

// syntheticProfile encodes a pprof profile with one function per location
// (plus one location holding an inlined pair) and the given samples, each a
// stack of function names (innermost first) and a CPU value.
func syntheticProfile(t *testing.T, samples []profSample) []byte {
	t.Helper()
	strs := []string{""}
	idx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	var prof pb
	prof = prof.bytes(1, pb{}.varint(1, str("samples")).varint(2, str("count")))
	prof = prof.bytes(1, pb{}.varint(1, str("cpu")).varint(2, str("nanoseconds")))
	funcs := map[string]uint64{}
	for _, s := range samples {
		var locs []uint64
		for _, fn := range s.stack {
			id, ok := funcs[fn]
			if !ok {
				id = uint64(len(funcs) + 1)
				funcs[fn] = id
				prof = prof.bytes(5, pb{}.varint(1, id).varint(2, str(fn)))
				prof = prof.bytes(4, pb{}.varint(1, id).bytes(4, pb{}.varint(1, id).varint(2, 7)))
			}
			locs = append(locs, id)
		}
		prof = prof.bytes(2, pb{}.packed(1, locs...).packed(2, 1, uint64(s.value)))
	}
	// An inlined location: line[0] (innermost) is the inlined callee.
	callee, caller := uint64(100), uint64(101)
	prof = prof.bytes(5, pb{}.varint(1, callee).varint(2, str("repro/internal/logobj.(*Log).MessagesBefore")))
	prof = prof.bytes(5, pb{}.varint(1, caller).varint(2, str("repro/internal/core.(*Node).tryDeliver")))
	prof = prof.bytes(4, pb{}.varint(1, 500).bytes(4, pb{}.varint(1, callee)).bytes(4, pb{}.varint(1, caller)))
	prof = prof.bytes(2, pb{}.packed(1, 500).packed(2, 1, 4000))
	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/logobj.(*Log).MessagesBefore", "repro/internal/core.(*Node).tryDeliver"}, "logobj"},
		{[]string{"repro/internal/core.(*Node).Step", "repro/internal/live.(*System).runNode"}, "core"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"syscall.Syscall", "main.runRep"}, "other"},
		{[]string{"repro/internal/wire/sub.Encode"}, "wire"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestParseProfileAndLayerCPU(t *testing.T) {
	samples := []profSample{
		{[]string{"runtime.mallocgc", "repro/internal/logobj.(*Log).MessagesBefore", "repro/internal/core.(*Node).tryDeliver"}, 3000},
		{[]string{"repro/internal/paxos.(*Node).accept", "runtime.goexit"}, 2000},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, 1000},
	}
	got, err := parseProfile(syntheticProfile(t, samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(got))
	}
	if got[0].value != 3000 || len(got[0].stack) != 3 || got[0].stack[1] != samples[0].stack[1] {
		t.Errorf("sample 0 = %+v", got[0])
	}
	// The inlined location expands innermost first.
	if s := got[3].stack; len(s) != 2 || s[0] != "repro/internal/logobj.(*Log).MessagesBefore" {
		t.Errorf("inlined stack = %v", s)
	}
	cpu := layerCPU(got)
	want := map[string]int64{"logobj": 7000, "paxos": 2000, "runtime": 1000}
	if !reflect.DeepEqual(cpu, want) {
		t.Errorf("CPU per layer = %v, want %v", cpu, want)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("accepted non-gzip input")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // field 2, length 5, one byte present
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Error("accepted truncated protobuf")
	}
}
