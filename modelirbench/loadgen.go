package main

// The open-loop load generator. A dispatcher releases each op at its
// intended send time whether or not earlier ops have finished, and a
// fixed set of workers (one connection each) sends them. Latency runs
// from the intended send time, so a stall is charged to every op it
// delays, not only to the op that hit it.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// phase is the record of one open-loop phase or ladder rung.
type phase struct {
	name     string
	rate     float64 // scheduled mean arrival rate, ops/s
	sent     int     // ops handed to a worker and sent
	ok       int     // answered with success
	failed   int     // refused, failed or timed out
	wrong    int     // answered, but the answer check failed (set later)
	dropped  int     // never sent: the rung was cut off while they queued
	query    hist    // successful query latency from intended send time
	appends  hist    // successful append latency from intended send time
	qwin     []hist  // query latency per window of the schedule
	awin     []hist  // append latency per window of the schedule
	lag      hist    // dispatcher lateness behind the schedule
	backlog  int     // most ops queued for a worker at once
	drain    time.Duration
	duration time.Duration // first intended send to last completion
}

// completedRate is successful ops per second over the phase.
func (p *phase) completedRate() float64 {
	if p.duration <= 0 {
		return 0
	}
	return float64(p.ok) / p.duration.Seconds()
}

func (p *phase) String() string {
	wins := make([]string, len(p.qwin))
	for i := range p.qwin {
		wins[i] = fmt.Sprintf("%.3f", ms(p.qwin[i].quantile(0.99)))
	}
	return fmt.Sprintf("phase %-14s rate=%7.1f/s sent=%d ok=%d failed=%d wrong=%d dropped=%d"+
		" query_p50=%.3fms query_p99=%.3fms (n=%d) append_p50=%.3fms append_p99=%.3fms (n=%d)"+
		" lag_p50=%.3fms lag_p99=%.3fms backlog_max=%d drain=%.1fms completed=%.1f/s window_query_p99=[%s]",
		p.name, p.rate, p.sent, p.ok, p.failed, p.wrong, p.dropped,
		ms(p.query.quantile(0.5)), ms(p.query.quantile(0.99)), p.query.n,
		ms(p.appends.quantile(0.5)), ms(p.appends.quantile(0.99)), p.appends.n,
		ms(p.lag.quantile(0.5)), ms(p.lag.quantile(0.99)), p.backlog, ms(p.drain), p.completedRate(),
		strings.Join(wins, " "))
}

// runOpen sends ops first, first+1, … at start+sched[k] on workers
// goroutines and returns once every op has finished or been dropped.
// Latencies are also kept per window: the schedule is cut into windows
// of equal length by intended send time.
// isAppend sorts latencies; do executes op i and reports its failure.
// Ops still queued drainLimit after the last intended send are
// dropped; ops in flight are never cancelled, so an append the client
// gave up on cannot land unacknowledged.
func runOpen(ctx context.Context, name string, rate float64, sched []time.Duration, first, workers, windows int,
	drainLimit time.Duration, isAppend func(i int) bool, do func(ctx context.Context, i int, at time.Time) error) *phase {
	p := &phase{name: name, rate: rate}
	if len(sched) == 0 {
		return p
	}
	type job struct {
		i, win int
		at     time.Time
	}
	span := sched[len(sched)-1] + 1
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy worker and keeps to the schedule.
	queue := make(chan job, len(sched))
	var cut atomic.Bool

	type tally struct {
		sent, ok, failed, dropped int
		qwin, awin                []hist
		last                      time.Time
	}
	tallies := make([]tally, workers)
	for i := range tallies {
		tallies[i].qwin, tallies[i].awin = make([]hist, windows), make([]hist, windows)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for j := range queue {
				if cut.Load() || ctx.Err() != nil {
					t.dropped++
					continue
				}
				err := do(ctx, j.i, j.at)
				done := time.Now()
				switch {
				case err != nil:
					t.failed++
				case isAppend(j.i):
					t.ok++
					t.awin[j.win].record(done.Sub(j.at))
				default:
					t.ok++
					t.qwin[j.win].record(done.Sub(j.at))
				}
				t.sent++
				if done.After(t.last) {
					t.last = done
				}
			}
		}(&tallies[w])
	}

	start := time.Now().Add(2 * time.Millisecond)
	for k, off := range sched {
		at := start.Add(off)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		p.lag.record(time.Since(at))
		queue <- job{i: first + k, win: int(off * time.Duration(windows) / span), at: at}
		if n := len(queue); n > p.backlog {
			p.backlog = n
		}
	}
	close(queue)
	lastDue := start.Add(sched[len(sched)-1])

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Until(lastDue.Add(drainLimit))):
		cut.Store(true)
		<-finished
	}
	var last time.Time
	p.qwin, p.awin = make([]hist, windows), make([]hist, windows)
	for i := range tallies {
		t := &tallies[i]
		p.sent += t.sent
		p.ok += t.ok
		p.failed += t.failed
		p.dropped += t.dropped
		for w := 0; w < windows; w++ {
			p.qwin[w].merge(&t.qwin[w])
			p.awin[w].merge(&t.awin[w])
			p.query.merge(&t.qwin[w])
			p.appends.merge(&t.awin[w])
		}
		if t.last.After(last) {
			last = t.last
		}
	}
	if last.After(lastDue) {
		p.drain = last.Sub(lastDue)
	}
	p.duration = last.Sub(start)
	return p
}

// sustains reports whether a ladder rung held its rate: nothing failed
// or was dropped, query p99 met the limit, the generator kept to its
// schedule, and the backlog drained within the latency limit.
func (p *phase) sustains(p99Limit, lagLimit time.Duration) bool {
	return p.failed == 0 && p.dropped == 0 && p.wrong == 0 &&
		p.query.quantile(0.99) <= p99Limit &&
		p.lag.quantile(0.99) <= lagLimit &&
		p.drain <= p99Limit
}

// windowed is the median over windows of each window's q-quantile, in
// milliseconds: one burst of outside load moves one window, not the
// result. Empty windows are skipped.
func windowed(ws []hist, q float64) float64 {
	var vs []float64
	for i := range ws {
		if ws[i].n > 0 {
			vs = append(vs, ms(ws[i].quantile(q)))
		}
	}
	return median(vs)
}
