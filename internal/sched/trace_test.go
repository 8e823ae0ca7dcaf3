package sched

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	tr := &Trace{
		Version:   TraceVersion,
		Strategy:  "random",
		Seed:      42,
		Decisions: 6,
		Steps:     []Step{{Key: 1, N: 3}, {Key: 2, N: 1}, {Key: 1, N: 2}},
	}
	data, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, tr)
	}
}

func TestTraceVersionCheck(t *testing.T) {
	if _, err := UnmarshalTrace([]byte(`{"version":99,"steps":[]}`)); err == nil {
		t.Fatal("unsupported version accepted")
	}
	if _, err := UnmarshalTrace([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTraceFileIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tr := &Trace{Version: TraceVersion, Strategy: "rr2", Seed: 2, Decisions: 1, Steps: []Step{{Key: 1, N: 1}}}
	if err := WriteTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("file round trip mismatch: %+v vs %+v", back, tr)
	}
	if _, err := ReadTraceFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func TestControllerTraceRLE(t *testing.T) {
	// Decide 1, 1, 2, 2, 2, 1 over a ready set of both keys.
	want := []Step{{Key: 1, N: 2}, {Key: 2, N: 3}, {Key: 1, N: 1}}
	c := New(NewReplay(&Trace{Strategy: "random", Steps: want}), Options{Record: true})
	c.Go(func(int) {})
	c.Go(func(int) {})
	for i := 0; i < 6; i++ {
		c.pick(1, PointCheck)
	}
	tr := c.Trace()
	if !reflect.DeepEqual(tr.Steps, want) {
		t.Fatalf("RLE steps = %v, want %v", tr.Steps, want)
	}
	if tr.Decisions != 6 {
		t.Fatalf("Decisions = %d, want 6", tr.Decisions)
	}
	c.Run() // finishes the two tasks' coroutines
}
