package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-e", "e99"}, io.Discard); err == nil {
		t.Fatal("want unknown experiment error")
	}
	if err := run([]string{"-badflag"}, io.Discard); err == nil {
		t.Fatal("want flag parse error")
	}
}

func TestRunSelectedQuick(t *testing.T) {
	// One cheap experiment end-to-end through the printer.
	if err := run([]string{"-quick", "-e", "e3"}, io.Discard); err != nil {
		t.Fatalf("e3 quick: %v", err)
	}
	if err := run([]string{"-quick", "-e", "a3"}, io.Discard); err != nil {
		t.Fatalf("a3 quick: %v", err)
	}
}

func TestRunTimeoutRecordsCancellation(t *testing.T) {
	// A microscopic deadline cancels the E9 sweep mid-shard; the table
	// must still print, noting the cancellation, and the run must exit
	// cleanly (a fired deadline is not a failure).
	var out bytes.Buffer
	if err := run([]string{"-quick", "-timeout", "1ns", "-e", "e9"}, &out); err != nil {
		t.Fatalf("timed-out run failed: %v", err)
	}
	if !strings.Contains(out.String(), "== E9:") {
		t.Fatalf("E9 table missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "sweep cancelled by -timeout (context deadline exceeded)") {
		t.Fatalf("cancellation not noted:\n%s", out.String())
	}
}

func TestRunProfiles(t *testing.T) {
	// -cpuprofile/-memprofile write non-empty pprof files.
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	if err := run([]string{"-quick", "-e", "e3", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
		t.Fatalf("profiled run failed: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}
