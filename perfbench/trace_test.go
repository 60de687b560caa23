package main

import (
	"testing"
	"time"
)

func TestCoveredMergesOverlaps(t *testing.T) {
	// Two overlapping children (one per goroutine) and one reaching past
	// the parent's end.
	iv := [][2]int64{{50, 80}, {10, 40}, {30, 60}, {90, 130}}
	if got := covered(iv, 0, 100); got != 70+10 {
		t.Fatalf("covered = %d, want 80", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "run", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Name: "run", StartNS: 20, EndNS: 70},
	}
	tr.addAggregate("ip", 2, 5, 15)
	self := tr.selfTimes()
	want := map[string]time.Duration{"root": 40, "run": 50 + 50 - 15, "ip": 15}
	for k, w := range want {
		if self[k] != w {
			t.Errorf("self[%s] = %v, want %v", k, self[k], w)
		}
	}
	if d, n := tr.total("run"); d != 100 || n != 2 {
		t.Errorf("total(run) = %v over %d calls, want 100ns over 2", d, n)
	}
	if d, n := tr.total("ip"); d != 15 || n != 5 {
		t.Errorf("total(ip) = %v over %d calls, want 15ns over 5", d, n)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0)
	tr.end(id)
	tr.addAggregate("y", id, 1, time.Second)
}
