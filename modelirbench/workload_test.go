package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestOpStreamAndScheduleAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, err := genOps(w, 5, 400)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genOps(w, 5, 400)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genOps(w, 6, 400)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: op %d differs between two streams of seed 5", w.name, i)
			}
			same = same && bytes.Equal(a[i].body, c[i].body)
		}
		if same {
			t.Errorf("%s: seeds 5 and 6 gave the same stream", w.name)
		}
		s1, s2 := arrivals(5, w.rate, 2*time.Second), arrivals(5, w.rate, 2*time.Second)
		if !reflect.DeepEqual(s1, s2) || len(s1) == 0 {
			t.Errorf("%s: schedules of seed 5 differ or are empty", w.name)
		}
		if reflect.DeepEqual(s1, arrivals(6, w.rate, 2*time.Second)) {
			t.Errorf("%s: seeds 5 and 6 gave the same schedule", w.name)
		}
		// A shorter schedule is a prefix of a longer one, so the traced
		// replay sends the same ops at the same offsets as the load run.
		long := arrivals(5, w.rate, 4*time.Second)
		if !reflect.DeepEqual(s1, long[:len(s1)]) {
			t.Errorf("%s: the 2s schedule is not a prefix of the 4s one", w.name)
		}
	}
}

func TestOpsCompileToRequests(t *testing.T) {
	for _, w := range workloads {
		ops, err := genOps(w, 1, 2000)
		if err != nil {
			t.Fatal(err)
		}
		appends := 0
		for i := range ops {
			if ops[i].Kind.isAppend() {
				appends++
				if ops[i].rows() == 0 {
					t.Errorf("%s: op %d appends no rows", w.name, i)
				}
				continue
			}
			if _, err := ops[i].request(); err != nil {
				t.Errorf("%s: op %d (%s): %v", w.name, i, ops[i].Kind, err)
			}
		}
		if want := w.mix[opAppendTuples] + w.mix[opAppendSeries] + w.mix[opAppendWells]; (appends > 0) != (want > 0) {
			t.Errorf("%s: %d appends in 2000 ops with append weight %v", w.name, appends, want)
		}
	}
}
