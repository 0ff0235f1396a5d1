package main

// The traced run. It first drives the daemons: an HTTP phase at the
// workload's rate, for the numbers only the daemon shows (HTTP overhead,
// tail latency), then the rate ladder. Then it replays the same op
// stream on the same schedule against components built in this process
// through the public API, twice: once untraced and once with spans
// around each layer's calls. The spans give the per-layer numbers; the
// two replays give the tracing overhead.

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modelir"
)

// kernelModule names the kernel package behind each query family.
var kernelModule = map[opKind]string{
	opLinear: "onion", opScene: "progressive", opFSM: "fsm",
	opFSMDistance: "fsm.distance", opGeology: "sproc", opKnowledge: "bayes",
}

// kernelWork sums one family's work counters over executed (not cached)
// queries.
type kernelWork struct{ queries, examined, pruned int }

func (k kernelWork) perQuery() float64 {
	if k.queries == 0 {
		return 0
	}
	return float64(k.examined) / float64(k.queries)
}

func (k kernelWork) prunedShare() float64 {
	if k.examined+k.pruned == 0 {
		return 0
	}
	return float64(k.pruned) / float64(k.examined+k.pruned)
}

// replayRecord is what one in-process replay measured.
type replayRecord struct {
	p          *phase
	kernels    [numOpKinds]kernelWork
	hit        []bool // by op index
	queries    int
	hits       int
	appends    int
	rows       int
	invals     uint64
	gens       uint64 // appended datasets' generation advance
	deltasMax  int
	connsQuery float64
	connsApp   float64
	nodeFailed int
}

// inprocCluster is a router in front of two nodes replicating every
// partition, on loopback listeners that count accepted connections.
type inprocCluster struct {
	router  *modelir.ClusterRouter
	nodes   []*modelir.ClusterNode
	accepts atomic.Int64
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

func startCluster(ctx context.Context, a *archives) (*inprocCluster, error) {
	c := &inprocCluster{}
	var lns []net.Listener
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	topo := modelir.ClusterTopology{Nodes: addrs, Replication: 2}
	for i, addr := range addrs {
		n := modelir.NewClusterNode(addr, topo, modelir.ClusterNodeOptions{Shards: engineShards})
		for _, err := range []error{
			n.AddTuples("tuples", a.pts), n.AddScene("scene", a.scene),
			n.AddSeries("weather", a.weather), n.AddWells("basin", a.wells),
		} {
			if err != nil {
				for _, l := range lns[i:] {
					l.Close()
				}
				c.close()
				return nil, err
			}
		}
		n.ServeListener(countingListener{Listener: lns[i], n: &c.accepts})
		c.nodes = append(c.nodes, n)
	}
	c.router = modelir.NewClusterRouterWith(topo, modelir.ClusterRouterOptions{})
	if err := c.router.SyncIngest(ctx); err != nil {
		c.close()
		return nil, fmt.Errorf("router sync: %w", err)
	}
	return c, nil
}

func (c *inprocCluster) close() {
	if c.router != nil {
		_ = c.router.Close() // teardown; nothing to do on error
	}
	for _, n := range c.nodes {
		n.Close()
	}
}

func clusterRequest(r modelir.Request) modelir.ClusterRequest {
	return modelir.ClusterRequest{Dataset: r.Dataset, Query: r.Query, K: r.K}
}

func appendVia(ctx context.Context, app *modelir.Appender, o *op) error {
	switch o.Kind {
	case opAppendSeries:
		return app.AppendSeries(ctx, o.Kind.dataset(), o.Series)
	case opAppendWells:
		return app.AppendWells(ctx, o.Kind.dataset(), o.Wells)
	}
	return app.AppendTuples(ctx, o.Kind.dataset(), o.Rows)
}

// replay runs the op stream's first len(sched) ops on sched against an
// engine restored from the prep snapshot (plus, for the cluster
// workload, an in-process cluster), with spans when t is not nil.
func (b *bench) replay(ctx context.Context, name string, t *tracer, sched []time.Duration) (*replayRecord, error) {
	n := len(sched)
	reqs := make([]modelir.Request, n)
	for i := range reqs {
		if !b.ops[i].Kind.isAppend() {
			var err error
			if reqs[i], err = b.ops[i].request(); err != nil {
				return nil, err
			}
		}
	}
	snap, err := modelir.NewSnapshotDir(b.snapDir())
	if err != nil {
		return nil, err
	}
	var eng *modelir.Engine
	err = t.timed(t.newID(), 0, "segment.restore", func() (err error) {
		eng, err = modelir.OpenSnapshot(snap, modelir.RestoreOptions{Mode: modelir.RestoreMap})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	defer eng.Close()
	app := modelir.NewAppender(eng, modelir.AppenderOptions{})
	defer app.Close()
	var cl *inprocCluster
	if b.w.role == "cluster" {
		if cl, err = startCluster(ctx, b.arch); err != nil {
			return nil, err
		}
		defer cl.close()
	}
	warm, err := warmupOps(b.w)
	if err != nil {
		return nil, err
	}
	for _, o := range warm {
		req, err := o.request()
		if err != nil {
			return nil, err
		}
		if _, err := eng.Run(ctx, req); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", o.Kind, err)
		}
		if cl != nil {
			if _, err := cl.router.Run(ctx, clusterRequest(req)); err != nil {
				return nil, fmt.Errorf("cluster warm-up %s: %w", o.Kind, err)
			}
		}
	}

	rec := &replayRecord{hit: make([]bool, n)}
	gens := func() (sum uint64, deltas int) {
		for _, ds := range eng.Datasets() {
			if b.w.appended(ds.Name) {
				sum += ds.Gen
			}
			deltas = max(deltas, ds.Deltas)
		}
		return sum, deltas
	}
	gen0, _ := gens()
	inval0 := eng.CacheStats().Invalidations
	// Sample the live delta count as /stats would, every 10ms.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				if _, d := gens(); d > rec.deltasMax {
					rec.deltasMax = d
				}
			}
		}
	}()

	var mu sync.Mutex
	do := func(ctx context.Context, i int, at time.Time) error {
		o := &b.ops[i]
		root, req := t.newID(), int64(i+1)
		var err error
		if o.Kind.isAppend() {
			if cl != nil {
				err = t.timed(root, req, "cluster.append", func() error {
					_, err := cl.router.Append(ctx, modelir.ClusterAppendRequest{Dataset: o.Kind.dataset(), Tuples: o.Rows, Series: o.Series, Wells: o.Wells})
					return err
				})
			}
			if err == nil {
				err = t.timed(root, req, "core.append", func() error { return appendVia(ctx, app, o) })
			}
			mu.Lock()
			rec.appends++
			rec.rows += o.rows()
			mu.Unlock()
		} else {
			if cl != nil {
				err = t.timed(root, req, "cluster.run", func() error {
					_, err := cl.router.Run(ctx, clusterRequest(reqs[i]))
					return err
				})
			}
			var res modelir.Result
			if err == nil {
				err = t.timed(root, req, "core.run."+o.Kind.String(), func() (err error) {
					res, err = eng.Run(ctx, reqs[i])
					return err
				})
			}
			if err == nil {
				mu.Lock()
				rec.queries++
				if res.Stats.Cache.Hit {
					rec.hits++
					rec.hit[i] = true
				} else {
					k := &rec.kernels[o.Kind]
					k.queries++
					k.examined += res.Stats.Examined
					k.pruned += res.Stats.Pruned
				}
				mu.Unlock()
			}
		}
		if t != nil {
			t.add(root, 0, req, "op", at, time.Now())
		}
		return err
	}
	drain := time.Duration(b.w.p99LimitMS * float64(time.Millisecond))
	rec.p = runOpen(ctx, name, b.w.rate, sched, 0, b.workers, 1, drain, b.isAppend, do)
	app.Flush()
	close(stopPoll)
	pollWG.Wait()
	gen1, _ := gens()
	rec.gens = gen1 - gen0
	rec.invals = eng.CacheStats().Invalidations - inval0
	b.logf("%s", rec.p)

	if cl != nil {
		if err := rec.countConns(ctx, cl, b.ops[:n], reqs); err != nil {
			return nil, err
		}
		for _, node := range cl.nodes {
			_, _, failed := node.Stats()
			rec.nodeFailed += int(failed)
		}
		rec.nodeFailed += len(cl.router.PeerErrors())
	}

	after, err := modelir.NewSnapshotDir(filepath.Join(b.dir, "snap-"+name))
	if err != nil {
		return nil, err
	}
	if err := t.timed(t.newID(), 0, "segment.snapshot", func() error { return eng.Snapshot(ctx, after) }); err != nil {
		return nil, fmt.Errorf("snapshot after replay: %w", err)
	}
	return rec, nil
}

// countConns sends a few queries, then a few appends, one at a time and
// counts the connections the nodes accepted for each: exact counts.
func (rec *replayRecord) countConns(ctx context.Context, cl *inprocCluster, ops []op, reqs []modelir.Request) error {
	const each = 8
	var queries, appends int
	var qConns, aConns int64
	for i := range ops {
		o := &ops[i]
		before := cl.accepts.Load()
		switch {
		case !o.Kind.isAppend() && queries < each:
			if _, err := cl.router.Run(ctx, clusterRequest(reqs[i])); err != nil {
				return err
			}
			queries++
			qConns += cl.accepts.Load() - before
		case o.Kind.isAppend() && appends < each:
			if _, err := cl.router.Append(ctx, modelir.ClusterAppendRequest{Dataset: o.Kind.dataset(), Tuples: o.Rows}); err != nil {
				return err
			}
			appends++
			aConns += cl.accepts.Load() - before
		}
	}
	if queries > 0 {
		rec.connsQuery = float64(qConns) / float64(queries)
	}
	if appends > 0 {
		rec.connsApp = float64(aConns) / float64(appends)
	}
	return nil
}

// maxProbes is the number of ladder rungs a traced run measures: a
// bisection over the ladder's rungs.
const maxProbes = 4

// ladderSchedules returns each rung's schedule for a probe of length d.
func (b *bench) ladderSchedules(d time.Duration) (rungs [][]time.Duration, longest int) {
	rungs = make([][]time.Duration, len(b.w.ladder))
	for r, rate := range b.w.ladder {
		rungs[r] = arrivals(b.seed+int64(r+1)*10, rate, d)
		longest = max(longest, len(rungs[r]))
	}
	return rungs, longest
}

// climb bisects the rate ladder in at most maxProbes probes, sending
// ops from next on, and returns the highest rung that held (nil if
// none did). Every rung runs on a fresh deployment, so each starts from
// the same state and the answer does not depend on the order the rungs
// are visited in.
func (b *bench) climb(ctx context.Context, rungs [][]time.Duration, next int) (*phase, error) {
	limit := time.Duration(b.w.p99LimitMS * float64(time.Millisecond))
	var best *phase
	lo, hi := -1, len(rungs)
	for probes := 0; hi-lo > 1 && probes < maxProbes; probes++ {
		mid := (lo + hi) / 2
		if _, err := b.deploy(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p, err := b.phaseRun(ctx, fmt.Sprintf("ladder-%d", mid), b.w.ladder[mid], rungs[mid], next)
		if err != nil {
			return nil, err
		}
		wrong, err := b.finalCheck(ctx, next, next+len(rungs[mid]))
		if err != nil {
			return nil, err
		}
		b.undeploy()
		p.wrong += wrong
		next += len(rungs[mid])
		if p.sustains(limit, lagLimit) {
			lo, best = mid, p
		} else {
			hi = mid
		}
	}
	return best, nil
}

// runTraced is the traced run: it reports every per-layer metric.
func (b *bench) runTraced(ctx context.Context) (result, error) {
	w := b.w
	// HTTP phase, ladder and the two replays: 30%, 30%, 20% and 20%.
	total := time.Duration(b.seconds) * time.Second
	sched := arrivals(b.seed, w.rate, total*3/10)
	rungs, longest := b.ladderSchedules(total * 3 / 10 / maxProbes)
	if err := b.prepare(ctx, len(sched)+maxProbes*longest, true); err != nil {
		return result{}, err
	}
	if _, err := b.deploy(ctx); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	p, err := b.phaseRun(ctx, "http", w.rate, sched, 0)
	if err != nil {
		return result{}, err
	}
	finalWrong, err := b.finalCheck(ctx, 0, len(sched))
	if err != nil {
		return result{}, err
	}
	b.undeploy()
	best, err := b.climb(ctx, rungs, len(sched))
	if err != nil {
		return result{}, err
	}
	attempted, failed, wrong := b.tally(finalWrong)
	sustained := 0.0
	if best != nil {
		sustained = best.completedRate()
	}

	// The HTTP layer's own time: client latency from the actual send,
	// less the engine's reported execution time.
	var httpSelf hist
	var httpKernels [numOpKinds]kernelWork
	var queries, repeats, appends int
	for i := range sched {
		o, r := &b.ops[i], &b.resp[i]
		if o.Kind.isAppend() {
			appends++
			continue
		}
		queries++
		if o.Repeat {
			repeats++
		}
		if !r.ok {
			continue
		}
		httpSelf.record(r.rtt - time.Duration(r.wallNS))
		if !r.hit {
			k := &httpKernels[o.Kind]
			k.queries++
			k.examined += r.examined
			k.pruned += r.pruned
		}
	}

	replaySched := arrivals(b.seed, w.rate, total/5)
	plain, err := b.replay(ctx, "replay", nil, replaySched)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := b.replay(ctx, "replay-traced", tr, replaySched)
	if err != nil {
		return result{}, err
	}
	tracePath := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("trace-%s-%d.json", w.name, b.seed))
	if err := tr.write(tracePath); err != nil {
		return result{}, err
	}
	b.logf("spans: %d written to %s", len(tr.spans), tracePath)
	b.logSelfTimes(tr.spans)

	b.set("query_p99_ms", "ms", windowed(p.qwin, 0.99))
	b.set("append_p99_ms", "ms", windowed(p.awin, 0.99))
	b.set("sustained_qps", "ops/s", sustained)
	b.set("loadgen.send_lag_p99_ms", "ms", ms(p.lag.quantile(0.99)))
	b.set("loadgen.repeat_share", "ratio", float64(repeats)/float64(max(queries, 1)))
	b.set("loadgen.append_share", "ratio", float64(appends)/float64(max(len(sched), 1)))
	b.set("loadgen.self_p50_us", "us", us(selfP50(tr.spans, "op")))
	b.set("modelird.http_p50_us", "us", us(httpSelf.quantile(0.5)))
	for _, k := range queryKinds {
		h := tr.durations("core.run." + k.String())
		b.set("core.run_p50_us."+k.String(), "us", us(h.quantile(0.5)))
		b.set("core.run_p99_us."+k.String(), "us", us(h.quantile(0.99)))

		// Three estimates: the daemon's and both replays'. A router
		// reports counters summed over nodes, so the cluster workload
		// uses the replays' engine alone.
		estimates := []kernelWork{plain.kernels[k], traced.kernels[k]}
		if w.role != "cluster" {
			estimates = append(estimates, httpKernels[k])
		}
		var per, share []float64
		for _, kw := range estimates {
			if kw.queries > 0 {
				per = append(per, kw.perQuery())
				share = append(share, kw.prunedShare())
			}
		}
		m := kernelModule[k]
		b.set(m+".examined_per_query", "count.approx", median(per))
		b.set(m+".examined_per_query.spread", "ratio", spread(per))
		b.set(m+".pruned_share", "ratio.approx", median(share))
		b.set(m+".pruned_share.spread", "ratio", spread(share))
	}
	b.set("core.append_p50_us", "us", us(tr.durations("core.append").quantile(0.5)))
	rowsPerFlush := 0.0
	if traced.gens > 0 {
		rowsPerFlush = float64(traced.rows) / float64(traced.gens)
	}
	b.set("core.rows_per_flush", "rows", rowsPerFlush)
	b.set("core.deltas_max", "count", float64(traced.deltasMax))

	b.set("qcache.hit_share", "ratio", float64(traced.hits)/float64(max(traced.queries, 1)))
	var hitDur hist
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "core.run.") && traced.hit[s.Req-1] {
			hitDur.record(s.dur())
		}
	}
	b.set("qcache.hit_p50_us", "us", us(hitDur.quantile(0.5)))
	b.set("qcache.invalidations_per_append", "count", float64(traced.invals)/float64(max(traced.appends, 1)))

	b.set("cluster.run_p50_us", "us", us(tr.durations("cluster.run").quantile(0.5)))
	b.set("cluster.scatter_p50_us", "us", us(scatterP50(tr.spans)))
	b.set("cluster.conns_per_query", "count.exact", traced.connsQuery)
	b.set("cluster.conns_per_append", "count.exact", traced.connsApp)
	b.set("cluster.append_p50_us", "us", us(tr.durations("cluster.append").quantile(0.5)))
	b.set("cluster.node_failed", "count", float64(traced.nodeFailed))

	b.set("segment.restore_ms", "ms", ms(tr.durations("segment.restore").quantile(0.5)))
	b.set("segment.snapshot_ms", "ms", ms(tr.durations("segment.snapshot").quantile(0.5)))

	overhead := 0.0
	if base := plain.p.query.quantile(0.5); base > 0 {
		overhead = float64(traced.p.query.quantile(0.5))/float64(base) - 1
	}
	b.set("trace.overhead_share", "ratio", overhead)
	return result{Correct: wrong == 0, Attempted: attempted, Failed: failed + wrong, Metrics: b.metrics}, nil
}

// spread is (max-min)/median of a few estimates of one quantity.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}

// selfP50 is the median self time of the spans named name.
func selfP50(spans []span, name string) time.Duration {
	self := selfTimes(spans)
	var h hist
	for _, s := range spans {
		if s.Name == name {
			h.record(self[s.ID])
		}
	}
	return h.quantile(0.5)
}

// logSelfTimes prints each layer's total self time.
func (b *bench) logSelfTimes(spans []span) {
	byName := selfByName(spans)
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.logf("self time %-24s %10.3fms", n, ms(byName[n]))
	}
}

// scatterP50 is the median, over queries, of the router's time less the
// in-process engine's time for the same request.
func scatterP50(spans []span) time.Duration {
	router := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == "cluster.run" {
			router[s.Req] = s.dur()
		}
	}
	var h hist
	for _, s := range spans {
		if r, ok := router[s.Req]; ok && s.Name != "cluster.run" && s.Name != "op" {
			h.record(r - s.dur())
		}
	}
	return h.quantile(0.5)
}
