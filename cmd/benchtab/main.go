// benchtab regenerates the paper's evaluation tables (experiments E1-E8
// plus the shard-scaling sweep E9; see DESIGN.md §3) and the A1-A4
// ablations. End-to-end and per-layer timings of the serving stack come
// from modelirbench (see modelirbench/README.md), not from here.
//
// Usage:
//
//	benchtab                             # run all experiments at full scale
//	benchtab -e e1,e5                    # run selected experiments
//	benchtab -quick                      # small data sizes (seconds instead of minutes)
//	benchtab -cpuprofile cpu.pprof       # profile the run (go tool pprof)
//	benchtab -memprofile mem.pprof       # heap profile at exit
//	benchtab -timeout 30s                # bound the run with a context deadline
//
// -timeout wires a context.WithTimeout through the experiment driver:
// the E9 shard sweep cancels its Engine.Run queries mid-shard when the
// deadline fires and notes the cancellation in its table; experiments
// after the first are skipped once the deadline has passed. A timed-out
// run prints what completed and exits 0 — the deadline is an
// operational bound, not a failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"modelir/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	expList := fs.String("e", "all", "comma-separated ids (e1..e9 experiments, a1..a4 ablations), all, or ablations")
	quick := fs.Bool("quick", false, "shrink data sizes for a fast smoke run")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this path")
	timeout := fs.Duration("timeout", 0, "overall deadline; cancels in-flight E9 queries mid-shard and skips later experiments (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtab: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab: memprofile:", err)
			}
		}()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := experiments.Config{Quick: *quick, Ctx: ctx}
	// Validate the -e selection before any benchmark work so a typo'd
	// id fails fast instead of after minutes of timing runs.
	if *expList != "all" && *expList != "ablations" {
		for _, id := range strings.Split(*expList, ",") {
			if _, ok := experiments.ByID(strings.TrimSpace(id)); !ok {
				return fmt.Errorf("unknown experiment %q (want e1..e9 or a1..a4)", id)
			}
		}
	}
	var tables []experiments.Table
	var runErr error
	switch *expList {
	case "all":
		tables, runErr = experiments.All(cfg)
	case "ablations":
		tables, runErr = experiments.Ablations(cfg)
	default:
		for i, id := range strings.Split(*expList, ",") {
			runner, _ := experiments.ByID(strings.TrimSpace(id))
			if i > 0 {
				if runErr = ctx.Err(); runErr != nil {
					break // deadline fired between experiments
				}
			}
			var tbl experiments.Table
			tbl, runErr = runner(cfg)
			if runErr != nil {
				break
			}
			tables = append(tables, tbl)
		}
	}
	for _, t := range tables {
		printTable(out, t)
	}
	if runErr != nil {
		// A fired deadline is an operational bound the caller asked
		// for, not a failure: report what completed and exit clean.
		if ce := ctx.Err(); ce != nil && errors.Is(runErr, ce) {
			fmt.Fprintf(out, "timeout %v reached (%v): %d experiment table(s) completed before cancellation\n",
				*timeout, ce, len(tables))
			return nil
		}
		return runErr
	}
	return nil
}

func printTable(out io.Writer, t experiments.Table) {
	fmt.Fprintf(out, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		fmt.Fprintln(out, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(out, "  note:", n)
	}
	fmt.Fprintln(out)
}
