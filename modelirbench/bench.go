package main

// Deploying the daemons, driving them, checking their answers, and the
// untraced load run.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"modelir"
)

const (
	// setups is how many times a load run deploys the workload; setup_s
	// is their median, and each deployment takes a fifth of the load.
	setups = 5
	// lagLimit bounds the dispatcher's p99 lateness: beyond it the
	// generator, not the system, set the pace. A load run that ran later
	// than this is invalid; a ladder rung that did fails.
	lagLimit = 50 * time.Millisecond
	// windowsPerSecond sets how finely a phase's latencies are also kept
	// by window; the load run reports the median window.
	windowsPerSecond = 1
)

type bench struct {
	w       *workload
	seed    int64
	seconds int
	bin     string
	dir     string
	workers int
	out     io.Writer
	metrics map[string]metric

	arch    *archives
	ref     *modelir.Engine // the base archives, never appended to
	ops     []op
	resp    []response
	client  *client
	addr    string // the HTTP front end: the single daemon or the router
	daemons []*daemon
	phases  []*phase
	errLogs atomic.Int32
}

// response is what the daemon answered to one op.
type response struct {
	ok       bool
	items    []answer
	wallNS   int64
	examined int
	pruned   int
	hit      bool
	rtt      time.Duration // from the actual send to the whole body read
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.out, format+"\n", args...) }

// logErr prints the first few op failures.
func (b *bench) logErr(err error) {
	if b.errLogs.Add(1) <= 5 {
		b.logf("error: %v", err)
	}
}

func (b *bench) snapDir() string { return filepath.Join(b.dir, "snap") }

// prepare generates the archives, the reference engine and n ops. With
// snapshot it also writes the reference's snapshot, which restore-role
// daemons boot from and the traced replay restores.
func (b *bench) prepare(ctx context.Context, n int, snapshot bool) error {
	var err error
	if b.arch, err = genArchives(b.w, b.seed); err != nil {
		return err
	}
	if b.ref, err = b.arch.engine(modelir.EngineOptions{Shards: engineShards}); err != nil {
		return err
	}
	if snapshot {
		dir, err := modelir.NewSnapshotDir(b.snapDir())
		if err != nil {
			return err
		}
		if err := b.ref.Snapshot(ctx, dir); err != nil {
			return fmt.Errorf("prep snapshot: %w", err)
		}
	}
	if b.ops, err = genOps(b.w, b.seed, n); err != nil {
		return err
	}
	b.resp = make([]response, n)
	b.client = newClient(b.workers)
	return nil
}

// deploy starts the workload's daemons and returns once every front end
// answers /healthz with 200 and one warm-up query per family has been
// answered.
func (b *bench) deploy(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	args := b.w.daemonArgs(b.seed)
	launch := func(name string, extra ...string) (*daemon, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(b.bin, name, addr, append(extra, args...)...)
		if err == nil {
			b.daemons = append(b.daemons, d)
		}
		return d, err
	}
	var front *daemon
	var err error
	switch b.w.role {
	case "single":
		front, err = launch("modelird", "-role=single")
	case "restore":
		front, err = launch("modelird", "-role=single", "-data-dir", b.snapDir())
	case "cluster":
		var nodeAddrs []string
		for i := 0; i < 2; i++ {
			a, err := freeAddr()
			if err != nil {
				return 0, err
			}
			nodeAddrs = append(nodeAddrs, a)
		}
		peers := strings.Join(nodeAddrs, ",")
		for i, a := range nodeAddrs {
			d, err := startDaemon(b.bin, fmt.Sprintf("node%d", i), a,
				append([]string{"-role=node", "-peers", peers, "-replication", "2"}, args...)...)
			if err != nil {
				return 0, err
			}
			b.daemons = append(b.daemons, d)
		}
		for _, d := range b.daemons {
			if err := waitTCP(ctx, d); err != nil {
				return 0, err
			}
		}
		front, err = launch("router", "-role=router", "-peers", peers, "-replication", "2")
	}
	if err != nil {
		return 0, err
	}
	b.addr = front.addr
	if err := waitHealthy(ctx, b.client, front); err != nil {
		return 0, err
	}
	warm, err := warmupOps(b.w)
	if err != nil {
		return 0, err
	}
	for _, o := range warm {
		st, body, err := b.client.post(ctx, b.addr, "/run", o.body)
		if err != nil {
			return 0, fmt.Errorf("warm-up %s: %w", o.Kind, err)
		}
		if st != http.StatusOK {
			return 0, fmt.Errorf("warm-up %s: HTTP %d: %.200s", o.Kind, st, body)
		}
	}
	return time.Since(start), nil
}

func (b *bench) undeploy() {
	for _, d := range b.daemons {
		d.stop()
	}
	b.daemons = nil
	b.client.close()
}

func (b *bench) peakRSS() (float64, error) {
	var sum float64
	for _, d := range b.daemons {
		mib, err := d.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		sum += mib
	}
	return sum, nil
}

// send is the generator's op: POST it, time it, keep the answer.
func (b *bench) send(ctx context.Context, i int, _ time.Time) error {
	o := &b.ops[i]
	t0 := time.Now()
	st, body, err := b.client.post(ctx, b.addr, o.path(), o.body)
	rtt := time.Since(t0)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %.200s", st, body)
	}
	if err != nil {
		err = fmt.Errorf("op %d (%s): %w", i, o.Kind, err)
		b.logErr(err)
		return err
	}
	r := &b.resp[i]
	r.rtt = rtt
	if o.Kind.isAppend() {
		var ar struct {
			Appended int `json:"appended"`
		}
		if err := json.Unmarshal(body, &ar); err != nil {
			return err
		}
		if ar.Appended != o.rows() {
			err := fmt.Errorf("op %d: appended %d rows, sent %d", i, ar.Appended, o.rows())
			b.logErr(err)
			return err
		}
	} else {
		var wr wireResult
		if err := json.Unmarshal(body, &wr); err != nil {
			return err
		}
		r.items, r.wallNS, r.hit = wr.Items, wr.Stats.WallNS, wr.Stats.Cache.Hit
		r.examined, r.pruned = wr.Stats.Examined, wr.Stats.Pruned
	}
	r.ok = true
	return nil
}

func (b *bench) isAppend(i int) bool { return b.ops[i].Kind.isAppend() }

// phaseRun runs ops first… on sched against the daemons, then checks
// every answer it got.
func (b *bench) phaseRun(ctx context.Context, name string, rate float64, sched []time.Duration, first int) (*phase, error) {
	drain := time.Duration(b.w.p99LimitMS * float64(time.Millisecond))
	wins := max(1, int(float64(windowsPerSecond)*(sched[len(sched)-1].Seconds())+0.5))
	p := runOpen(ctx, name, rate, sched, first, b.workers, wins, drain, b.isAppend, b.send)
	b.phases = append(b.phases, p)
	if err := b.checkPhase(ctx, p, first, len(sched)); err != nil {
		return nil, err
	}
	b.logf("%s", p)
	return p, ctx.Err()
}

// base is the number of base rows of an appendable dataset.
func (b *bench) base(dataset string) int64 {
	switch dataset {
	case "weather":
		return int64(len(b.arch.weather))
	case "basin":
		return int64(len(b.arch.wells))
	}
	return int64(len(b.arch.pts))
}

// checkPhase checks every answered query of the phase against the
// reference and counts the wrong ones.
func (b *bench) checkPhase(ctx context.Context, p *phase, first, n int) error {
	for i := first; i < first+n; i++ {
		o, r := &b.ops[i], &b.resp[i]
		if !r.ok || o.Kind.isAppend() {
			continue
		}
		req, err := o.request()
		if err != nil {
			return err
		}
		res, err := b.ref.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("reference %s: %w", o.Kind, err)
		}
		want := answersOf(res)
		if ds := o.Kind.dataset(); b.w.appended(ds) {
			err = checkGrowing(r.items, want, b.base(ds), o.K)
		} else {
			err = checkExact(r.items, want)
		}
		if err != nil {
			p.wrong++
			b.logErr(fmt.Errorf("wrong answer: op %d (%s): %v", i, o.Kind, err))
		}
	}
	return nil
}

// acked returns the rows of every acknowledged append among ops
// [from, to), in op order.
func (b *bench) acked(from, to int) (rows [][]float64, series []modelir.RegionSeries, wells []modelir.WellLog) {
	for i := from; i < to; i++ {
		if b.resp[i].ok {
			rows = append(rows, b.ops[i].Rows...)
			series = append(series, b.ops[i].Series...)
			wells = append(wells, b.ops[i].Wells...)
		}
	}
	return rows, series, wells
}

// finalCheck compares the datasets the current deployment grew, after
// ops [from, to) ran on it, with a reference holding their base rows
// plus every acked appended row: answers keyed on row content and
// score, and row counts. It returns the number of failed checks.
func (b *bench) finalCheck(ctx context.Context, from, to int) (int, error) {
	rows, series, wells := b.acked(from, to)
	grown := modelir.NewEngineWithOptions(modelir.EngineOptions{Shards: engineShards})
	defer grown.Close()
	if err := b.addGrown(grown, rows, series, wells); err != nil {
		return 0, err
	}
	wrong := 0
	fail := func(err error) {
		wrong++
		b.logErr(fmt.Errorf("wrong answer: final check: %v", err))
	}
	seen := contentMap{}
	check := func(o op) error {
		got, want, err := b.both(ctx, grown, o)
		if err != nil {
			return err
		}
		if o.Kind == opLinear {
			err = checkFinalTuples(got, want, b.base("tuples"), seen)
		} else {
			err = checkExact(got, want)
		}
		if err != nil {
			fail(fmt.Errorf("%s k=%d: %v", o.Kind, o.K, err))
		}
		return nil
	}
	for _, o := range finalOps(b.w, b.seed) {
		if err := check(o); err != nil {
			return 0, err
		}
	}

	wantRows := map[string]int{"tuples": len(b.arch.pts) + len(rows), "weather": len(b.arch.weather) + len(series),
		"basin": len(b.arch.wells) + len(wells)}
	if b.w.role == "cluster" {
		// The router's /stats has no row counts: ask for every row.
		all := op{Kind: opLinear, Coeffs: []float64{1, 1, 1}, K: wantRows["tuples"] + 1}
		if err := check(all); err != nil {
			return 0, err
		}
		return wrong, nil
	}
	st, err := b.client.stats(ctx, b.addr)
	if err != nil {
		return 0, err
	}
	for _, ds := range st.Datasets {
		if want, ok := wantRows[ds.Name]; ok && ds.Rows != want {
			fail(fmt.Errorf("/stats %s rows %d, want %d base + acked appended", ds.Name, ds.Rows, want))
		}
	}
	return wrong, nil
}

// addGrown registers each dataset the workload appends to on e: its
// base rows, then the acked appended rows.
func (b *bench) addGrown(e *modelir.Engine, rows [][]float64, series []modelir.RegionSeries, wells []modelir.WellLog) error {
	if b.w.appended("tuples") {
		if err := e.AddTuples("tuples", b.arch.pts); err != nil {
			return err
		}
		if len(rows) > 0 {
			if err := e.AppendTuples("tuples", rows); err != nil {
				return err
			}
		}
	}
	if b.w.appended("weather") {
		if err := e.AddSeries("weather", b.arch.weather); err != nil {
			return err
		}
		if len(series) > 0 {
			if err := e.AppendSeries("weather", series); err != nil {
				return err
			}
		}
	}
	if b.w.appended("basin") {
		if err := e.AddWells("basin", b.arch.wells); err != nil {
			return err
		}
		if len(wells) > 0 {
			return e.AppendWells("basin", wells)
		}
	}
	return nil
}

// both runs o on the daemon and on ref.
func (b *bench) both(ctx context.Context, ref *modelir.Engine, o op) (got, want []answer, err error) {
	body, err := o.encode()
	if err != nil {
		return nil, nil, err
	}
	st, resp, err := b.client.post(ctx, b.addr, "/run", body)
	if err != nil {
		return nil, nil, err
	}
	if st != http.StatusOK {
		return nil, nil, fmt.Errorf("final %s: HTTP %d: %.200s", o.Kind, st, resp)
	}
	var wr wireResult
	if err := json.Unmarshal(resp, &wr); err != nil {
		return nil, nil, err
	}
	req, err := o.request()
	if err != nil {
		return nil, nil, err
	}
	res, err := ref.Run(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	return wr.Items, answersOf(res), nil
}

// tally sums attempts, failures and wrong answers over every phase and
// the final checks, and prints them.
func (b *bench) tally(finalWrong int) (attempted, failed, wrong int) {
	wrong = finalWrong
	for _, p := range b.phases {
		attempted += p.sent
		failed += p.failed
		wrong += p.wrong
	}
	b.logf("ops attempted=%d failed=%d wrong=%d (final checks wrong=%d) error_share=%.6f",
		attempted, failed, wrong, finalWrong, float64(failed+wrong)/float64(max(attempted, 1)))
	return attempted, failed, wrong
}

// runLoad is the untraced run: it measures every end-to-end metric.
// The load is cut into one segment per deployment: each deployment is
// timed for setup_s, then takes its share of the op stream, on its
// share of the schedule. A run that drew a slow deployment, or a slow
// spell of the host, then moves only some of the windows the medians
// are taken over.
func (b *bench) runLoad(ctx context.Context) (result, error) {
	w := b.w
	seg := time.Duration(b.seconds) * time.Second / setups
	sched := arrivals(b.seed, w.rate, seg*setups)
	if err := b.prepare(ctx, len(sched), w.role == "restore"); err != nil {
		return result{}, err
	}
	var setupTimes, rss []float64
	var qwin, awin []hist
	var lag hist
	finalWrong, first := 0, 0
	for i := 0; i < setups; i++ {
		end := first
		for end < len(sched) && sched[end] < seg*time.Duration(i+1) {
			end++
		}
		part := make([]time.Duration, end-first)
		for k := range part {
			part[k] = sched[first+k] - seg*time.Duration(i)
		}
		d, err := b.deploy(ctx)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		p, err := b.phaseRun(ctx, fmt.Sprintf("main-%d", i), w.rate, part, first)
		if err != nil {
			return result{}, err
		}
		mib, err := b.peakRSS()
		if err != nil {
			return result{}, err
		}
		rss = append(rss, mib)
		wrong, err := b.finalCheck(ctx, first, end)
		if err != nil {
			return result{}, err
		}
		b.undeploy()
		finalWrong += wrong
		qwin, awin = append(qwin, p.qwin...), append(awin, p.awin...)
		lag.merge(&p.lag)
		first = end
	}
	b.logf("setup_s runs: %v", setupTimes)
	b.logf("peak_rss_mib runs: %v", rss)

	attempted, failed, wrong := b.tally(finalWrong)
	valid := lag.quantile(0.99) <= lagLimit
	if !valid {
		b.logf("invalid: the generator ran %.3fms late at p99 (limit %v)", ms(lag.quantile(0.99)), lagLimit)
	}
	b.set("setup_s", "s", median(setupTimes))
	b.set("query_p50_ms", "ms", windowed(qwin, 0.5))
	b.set("append_p50_ms", "ms", windowed(awin, 0.5))
	b.set("ok_share", "ratio", 1-float64(failed+wrong)/float64(max(attempted, 1)))
	b.set("peak_rss_mib", "MiB", median(rss))
	// Failures lower ok_share; wrong answers make the run incorrect.
	return result{Correct: wrong == 0 && valid, Attempted: attempted, Failed: failed + wrong, Metrics: b.metrics}, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
