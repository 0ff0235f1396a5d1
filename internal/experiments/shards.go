package experiments

import (
	"errors"
	"runtime"
	"time"

	"modelir/internal/core"
	"modelir/internal/linear"
	"modelir/internal/synth"
)

// shardPoint is one row of the shard-scaling sweep: query throughput of
// the sharded tuple engine at a given shard count, on one fixed
// archive and model.
type shardPoint struct {
	shards        int
	queriesPerSec float64
	nsPerQuery    float64
	// pointsTouched samples the last query's pruning stats. For
	// shards >= 2 it is scheduling-dependent (how far a shard scans
	// before the shared bound prunes it varies with interleaving).
	pointsTouched int
	// speedup is throughput relative to the 1-shard row.
	speedup float64
}

// ShardWorkloadSize is the full-scale E9 archive size (quick mode
// shrinks it); bench_test.go's BenchmarkLinearTopKSharded uses the
// same constant so the benchmark and the E9 table stay on one
// workload.
const ShardWorkloadSize = 100_000

// ShardWorkload is the canonical E9 fixture — the E9 table,
// `BenchmarkLinearTopKSharded` and the columnar scan benchmarks must
// measure the same archive and model, so all of them build it here.
// 8 dimensions put the Onion index in its weak-pruning regime
// (direction-sampled layers bound loosely and queries reach the core
// bucket), making the query scan-bound — the workload shard fan-out
// exists for.
func ShardWorkload(n int) ([][]float64, *linear.Model, error) {
	pts, err := synth.GaussianTuples(91, n, 8)
	if err != nil {
		return nil, nil, err
	}
	m, err := linear.New(
		[]string{"a", "b", "c", "d", "e", "f", "g", "h"},
		[]float64{1, -0.5, 2, 0.25, -1.5, 0.75, -0.25, 1.25}, 0)
	if err != nil {
		return nil, nil, err
	}
	return pts, m, nil
}

// runShardSweep times Engine.Run (LinearQuery) over ShardWorkload at
// each shard count. A context error cuts the sweep short: the points
// that completed are returned together with that error.
func runShardSweep(cfg Config) ([]shardPoint, error) {
	n, k, reps := ShardWorkloadSize, 10, 20
	if cfg.Quick {
		n, reps = 20_000, 5
	}
	ctx := cfg.ctx()
	pts, m, err := ShardWorkload(n)
	if err != nil {
		return nil, err
	}
	var points []shardPoint
	for _, shards := range []int{1, 2, 4, 8} {
		// Cache disabled: the sweep times execution, not cache serving.
		e := core.NewEngineWith(core.Options{Shards: shards, CacheEntries: -1})
		if err := e.AddTuples("t", pts); err != nil {
			return points, err
		}
		req := core.Request{Dataset: "t", Query: core.LinearQuery{Model: m}, K: k}
		// Build indexes outside the timed region.
		if _, err := e.Run(ctx, req); err != nil {
			return points, err
		}
		var touched int
		start := time.Now()
		for r := 0; r < reps; r++ {
			res, err := e.Run(ctx, req)
			if err != nil {
				return points, err
			}
			st, _ := res.Stats.Detail.(core.LinearTupleStats)
			touched = st.Indexed.PointsTouched
		}
		el := time.Since(start)
		p := shardPoint{
			shards:        shards,
			nsPerQuery:    float64(el.Nanoseconds()) / float64(reps),
			queriesPerSec: float64(reps) / el.Seconds(),
			pointsTouched: touched,
			speedup:       1,
		}
		if len(points) > 0 {
			p.speedup = p.queriesPerSec / points[0].queriesPerSec
		}
		points = append(points, p)
	}
	return points, nil
}

// E9 measures shard scaling of parallel top-K query execution over the
// tuple engine (the sharded-engine refactor; not part of the paper's
// original E1-E8 suite). A deadline on cfg.Ctx cancels the sweep
// mid-shard; the table then holds the shard counts that completed and
// a note recording the cancellation.
func E9(cfg Config) (Table, error) {
	t := Table{
		ID:    "E9",
		Title: "Shard scaling of LinearTopKTuples (8-attr Gaussian tuples, scan-bound regime)",
		Columns: []string{
			"shards", "queries/s", "ns/query", "pts touched", "speedup vs 1 shard",
		},
	}
	points, err := runShardSweep(cfg)
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			f("%d", p.shards),
			f("%.1f", p.queriesPerSec),
			f("%.0f", p.nsPerQuery),
			f("%d", p.pointsTouched),
			f("%.2fx", p.speedup),
		})
	}
	if ce := cfg.ctx().Err(); ce != nil && errors.Is(err, ce) {
		t.Notes = append(t.Notes,
			f("sweep cancelled by -timeout (%v); rows above are the shard counts that completed", ce))
		return t, nil
	}
	if err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		f("GOMAXPROCS=%d; shard fan-out buys wall-clock only with multiple cores", runtime.GOMAXPROCS(0)),
		"results are shard-count invariant (see core's TestShardEquivalenceAllFamilies)")
	return t, nil
}
