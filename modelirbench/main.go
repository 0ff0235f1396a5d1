// Command modelirbench is the modelir benchmark. It drives real modelird
// processes over HTTP with an open-loop generator on one named
// workload, checks every answer against an in-process reference engine
// built from the same seeded generators, and prints one JSON result
// line. With -trace 1 it also replays the workload's op stream through
// the public Go API with spans around each layer's calls and reports
// the per-layer metrics.
//
// Build and run it through run.sh from the root of the repository:
//
//	bash modelirbench/run.sh --workload archive-mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"query_p50_ms":{"value":1.2,"unit":"ms"},…}}
//
// The exit code is 0 only when every answer was right and the generator
// kept to its schedule.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runLimit bounds a whole run, build excluded; the watchdog stops every
// daemon and exits non-zero shortly after it.
const runLimit = 165 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("modelirbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: archive-mix, ingest-mix or cluster-scatter")
	seed := fs.Int64("seed", 1, "seed for the archives, the op stream and the arrival schedule")
	seconds := fs.Int("seconds", 20, "seconds of load to measure")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run, 0 = end-to-end metrics")
	bin := fs.String("bin", ".bench_build/modelird", "modelird binary")
	work := fs.String("work", ".bench_build", "directory for snapshots and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "modelirbench: need -workload archive-mix|ingest-mix|cluster-scatter, -seconds >= 1, -trace 0|1")
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "modelirbench:", err)
		return 1
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "modelirbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelirbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	watchdog := time.AfterFunc(runLimit+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "modelirbench: run exceeded its time limit")
		stopAll()
		os.RemoveAll(dir)
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer stopAll()

	b := &bench{w: w, seed: *seed, seconds: *seconds, bin: *bin, dir: dir, workers: runtime.NumCPU(),
		out: os.Stdout, metrics: map[string]metric{}}
	var res result
	if *trace == 1 {
		res, err = b.runTraced(ctx)
	} else {
		res, err = b.runLoad(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelirbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelirbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
