package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"
)

// TestSampledCapture: with slow detection off, only every Nth query is
// armed, and every armed trace lands on the ring with trigger
// "sample".
func TestSampledCapture(t *testing.T) {
	tc := New(Options{SampleEvery: 4, SlowQuery: -1})
	kept := 0
	for i := 0; i < 20; i++ {
		tr := tc.Start()
		if tr == nil {
			continue
		}
		tr.End(tr.Start(tr.Root(), "plan"))
		if trig := tc.Finish(tr); trig != "sample" {
			t.Fatalf("trigger = %q, want sample", trig)
		}
		kept++
	}
	if kept != 5 {
		t.Fatalf("armed %d of 20 queries with SampleEvery=4, want 5", kept)
	}
	st := tc.Stats()
	if st.Started != 5 || st.Sampled != 5 || st.Slow != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, snap := range tc.Snapshots() {
		if snap.Trigger != "sample" {
			t.Fatalf("ring entry trigger = %q", snap.Trigger)
		}
	}
}

// TestSlowTriggeredCapture: with a threshold, every query is armed
// retroactively but only those at or over the threshold are kept —
// the rest are dropped — and slow queries are logged through slog.
func TestSlowTriggeredCapture(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	tc := New(Options{SlowQuery: 5 * time.Millisecond, Logger: logger})

	// Fast query: armed (slow detection is on) but dropped at Finish.
	tr := tc.Start()
	if tr == nil {
		t.Fatal("slow detection on but query not armed")
	}
	if trig := tc.Finish(tr); trig != "" {
		t.Fatalf("fast query trigger = %q, want dropped", trig)
	}

	// Slow query: kept, ringed, logged.
	tr = tc.Start()
	tr.SetQuery("mongo", `{"a":1}`, "find")
	tr.SetRequestID("req-7")
	sp := tr.Start(tr.Root(), "eval")
	time.Sleep(6 * time.Millisecond)
	tr.End(sp)
	if trig := tc.Finish(tr); trig != "slow" {
		t.Fatalf("slow query trigger = %q, want slow", trig)
	}

	st := tc.Stats()
	if st.Started != 2 || st.Slow != 1 || st.Dropped != 1 || st.RingEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	snaps := tc.Snapshots()
	if len(snaps) != 1 || snaps[0].Trigger != "slow" || snaps[0].RequestID != "req-7" {
		t.Fatalf("ring = %+v", snaps)
	}
	var rec map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("slow log is not one JSON record: %v (%q)", err, logBuf.String())
	}
	if rec["msg"] != "slow query" || rec["request_id"] != "req-7" || rec["lang"] != "mongo" {
		t.Fatalf("slow log record = %v", rec)
	}
}

// TestZeroThresholdTracesEverything pins the end-to-end tests'
// configuration: SlowQuery == 0 keeps every query as slow.
func TestZeroThresholdTracesEverything(t *testing.T) {
	tc := New(Options{SlowQuery: 0})
	for i := 0; i < 3; i++ {
		tr := tc.Start()
		if trig := tc.Finish(tr); trig != "slow" {
			t.Fatalf("query %d trigger = %q, want slow", i, trig)
		}
	}
	if st := tc.Stats(); st.Slow != 3 || st.RingEntries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRingConcurrentWriters hammers one small ring from many
// goroutines and checks the invariants the /debug endpoint depends
// on: bounded memory (never more than RingSize entries), race-clean
// eviction, and newest-first ordering by snapshot id.
func TestRingConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		each    = 200
		size    = 16
	)
	tc := New(Options{SlowQuery: 0, RingSize: size})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A concurrent reader exercises snapshot-during-eviction.
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if n := len(tc.Snapshots()); n > size {
					panic(fmt.Sprintf("ring grew past its bound: %d > %d", n, size))
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr := tc.Start()
				tr.End(tr.Start(tr.Root(), "plan"))
				tc.Finish(tr)
			}
		}()
	}
	wg.Wait()
	close(stop)

	snaps := tc.Snapshots()
	if len(snaps) != size {
		t.Fatalf("ring holds %d entries after %d pushes, want exactly %d", len(snaps), writers*each, size)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].ID <= snaps[i].ID {
			t.Fatalf("not newest-first: id[%d]=%d <= id[%d]=%d", i-1, snaps[i-1].ID, i, snaps[i].ID)
		}
	}
	if st := tc.Stats(); st.Slow != writers*each {
		t.Fatalf("slow count %d, want %d", st.Slow, writers*each)
	}
}

// TestRingPartial: before wrapping, the ring returns only what was
// pushed, newest first.
func TestRingPartial(t *testing.T) {
	tc := New(Options{SlowQuery: 0, RingSize: 8})
	for i := 0; i < 3; i++ {
		tc.Finish(tc.Start())
	}
	snaps := tc.Snapshots()
	if len(snaps) != 3 || snaps[0].ID != 3 || snaps[2].ID != 1 {
		t.Fatalf("partial ring = %v", ids(snaps))
	}
}

func ids(snaps []*Snapshot) []uint64 {
	out := make([]uint64, len(snaps))
	for i, s := range snaps {
		out[i] = s.ID
	}
	return out
}
