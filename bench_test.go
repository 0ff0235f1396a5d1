// Benchmarks regenerating the paper's evaluation, one family per
// experiment (E1-E9; see DESIGN.md §3). `go test -bench=. -benchmem`
// reports the micro-level costs; `go run ./cmd/benchtab` prints the
// corresponding tables with speedup ratios.
package modelir_test

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"modelir/internal/bayes"
	"modelir/internal/colstore"
	"modelir/internal/core"
	"modelir/internal/experiments"
	"modelir/internal/features"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/metrics"
	"modelir/internal/onion"
	"modelir/internal/parallel"
	"modelir/internal/progressive"
	"modelir/internal/pyramid"
	"modelir/internal/raster"
	"modelir/internal/rtree"
	"modelir/internal/sproc"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// ---- E1: Onion vs scan vs R-tree on 3-attr Gaussian tuples ----

var e1Data = sync.OnceValues(func() (struct {
	pts   [][]float64
	onion *onion.Index
	rtree *rtree.Tree
	ws    [][]float64
}, error) {
	var out struct {
		pts   [][]float64
		onion *onion.Index
		rtree *rtree.Tree
		ws    [][]float64
	}
	pts, err := synth.GaussianTuples(101, 50_000, 3)
	if err != nil {
		return out, err
	}
	ix, err := onion.Build(pts, onion.Options{})
	if err != nil {
		return out, err
	}
	rt, err := rtree.Build(pts, rtree.Options{})
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(5))
	ws := make([][]float64, 32)
	for i := range ws {
		ws[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	out.pts, out.onion, out.rtree, out.ws = pts, ix, rt, ws
	return out, nil
})

func benchOnionK(b *testing.B, k int) {
	d, err := e1Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.onion.TopK(d.ws[i&31], k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1OnionTop1(b *testing.B)   { benchOnionK(b, 1) }
func BenchmarkE1OnionTop10(b *testing.B)  { benchOnionK(b, 10) }
func BenchmarkE1OnionTop100(b *testing.B) { benchOnionK(b, 100) }

func BenchmarkE1SequentialScanTop10(b *testing.B) {
	d, err := e1Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := onion.ScanTopK(d.pts, d.ws[i&31], 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1RTreeTop10(b *testing.B) {
	d, err := e1Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.rtree.LinearTopK(d.ws[i&31], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E2: progressive classification ----

var e2Data = sync.OnceValues(func() (struct {
	mb  *raster.Multiband
	gnb *bayes.GNB
	mp  *pyramid.MultibandPyramid
}, error) {
	var out struct {
		mb  *raster.Multiband
		gnb *bayes.GNB
		mp  *pyramid.MultibandPyramid
	}
	field, err := synth.SmoothField(31, 256, 256, 4)
	if err != nil {
		return out, err
	}
	sigs := [4][3]float64{{20, 15, 10}, {60, 140, 40}, {120, 180, 90}, {180, 90, 170}}
	rng := rand.New(rand.NewSource(32))
	bands := [3]*raster.Grid{
		raster.MustGrid(256, 256), raster.MustGrid(256, 256), raster.MustGrid(256, 256),
	}
	labelOf := func(x, y int) int {
		c := int(field.At(x, y) * 4)
		if c > 3 {
			c = 3
		}
		return c
	}
	for y := 0; y < 256; y++ {
		for x := 0; x < 256; x++ {
			c := labelOf(x, y)
			for bd := 0; bd < 3; bd++ {
				bands[bd].Set(x, y, sigs[c][bd]+rng.NormFloat64()*6)
			}
		}
	}
	mb, err := raster.Stack([]string{"b1", "b2", "b3"}, bands[0], bands[1], bands[2])
	if err != nil {
		return out, err
	}
	var xs [][]float64
	var labels []int
	for y := 0; y < 256; y += 3 {
		for x := 0; x < 256; x += 3 {
			xs = append(xs, mb.Pixel(x, y, nil))
			labels = append(labels, labelOf(x, y))
		}
	}
	gnb, err := bayes.TrainGNB(4, xs, labels)
	if err != nil {
		return out, err
	}
	mp, err := pyramid.BuildMultiband(mb, 6)
	if err != nil {
		return out, err
	}
	out.mb, out.gnb, out.mp = mb, gnb, mp
	return out, nil
})

func BenchmarkE2FlatClassification(b *testing.B) {
	d, err := e2Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.gnb.ClassifyScene(d.mb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2ProgressiveClassification(b *testing.B) {
	d, err := e2Data()
	if err != nil {
		b.Fatal(err)
	}
	opt := bayes.ProgressiveOptions{MarginThreshold: 10, MaxRange: 80}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.gnb.ClassifyProgressiveOpts(d.mp, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: progressive texture matching ----

var e3Data = sync.OnceValues(func() (struct {
	g     *raster.Grid
	p     *pyramid.Pyramid
	tiles []raster.Rect
	q     features.TextureQuery
}, error) {
	var out struct {
		g     *raster.Grid
		p     *pyramid.Pyramid
		tiles []raster.Rect
		q     features.TextureQuery
	}
	const w, h, tile = 256, 256, 32
	rng := rand.New(rand.NewSource(77))
	g := raster.MustGrid(w, h)
	for i := range g.Data() {
		g.Data()[i] = 95 + rng.Float64()*10
	}
	tx, ty := 128, 128
	for y := 0; y < tile; y++ {
		for x := 0; x < tile; x++ {
			v := 50.0
			if ((x/4)+(y/4))%2 == 0 {
				v = 200
			}
			g.Set(tx+x, ty+y, v)
		}
	}
	p, err := pyramid.Build(g, 4)
	if err != nil {
		return out, err
	}
	target := raster.Rect{X0: tx, Y0: ty, X1: tx + tile, Y1: ty + tile}
	coarse := p.Level(2)
	cRect := raster.Rect{
		X0: target.X0 / coarse.Scale, Y0: target.Y0 / coarse.Scale,
		X1: target.X1 / coarse.Scale, Y1: target.Y1 / coarse.Scale,
	}
	q := features.TextureQuery{Bins: 8, Levels: 8, Lo: 0, Hi: 255, PrefilterKeep: 0.15}
	q.TargetHist, err = features.NewHistogram(coarse.Mean, cRect, q.Bins, q.Lo, q.Hi)
	if err != nil {
		return out, err
	}
	q.TargetTexture, err = features.GLCM(g, target, q.Levels, q.Lo, q.Hi)
	if err != nil {
		return out, err
	}
	out.g, out.p, out.tiles, out.q = g, p, g.Tiles(tile), q
	return out, nil
})

func BenchmarkE3FlatTextureMatch(b *testing.B) {
	d, err := e3Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := features.MatchFlat(d.g, d.tiles, d.q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3ProgressiveTextureMatch(b *testing.B) {
	d, err := e3Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := features.MatchProgressive(d.p, d.tiles, d.q, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4: SPROC evaluators ----

var e4Query = sync.OnceValue(func() sproc.Query {
	const l, m = 100, 3
	rng := rand.New(rand.NewSource(40))
	unary := make([][]float64, m)
	for mi := range unary {
		unary[mi] = make([]float64, l)
		for j := range unary[mi] {
			if rng.Float64() < 0.1 {
				unary[mi][j] = 0.5 + 0.5*rng.Float64()
			} else {
				unary[mi][j] = 0.4 * rng.Float64()
			}
		}
	}
	pair := make([]float64, l*l)
	for i := range pair {
		pair[i] = rng.Float64()
	}
	return sproc.Query{
		M:     m,
		Unary: func(mi, item int) float64 { return unary[mi][item] },
		Pair:  func(mi, a, b int) float64 { return pair[a*l+b] },
	}
})

func BenchmarkE4SprocBruteForce(b *testing.B) {
	q := e4Query()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sproc.BruteForce(100, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4SprocDP(b *testing.B) {
	q := e4Query()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sproc.DP(100, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4SprocPruned(b *testing.B) {
	q := e4Query()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sproc.Pruned(100, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E5: progressive model x progressive data ----

var e5Data = sync.OnceValues(func() (struct {
	mp *pyramid.MultibandPyramid
	pm *linear.ProgressiveModel
}, error) {
	var out struct {
		mp *pyramid.MultibandPyramid
		pm *linear.ProgressiveModel
	}
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 55, W: 256, H: 256})
	if err != nil {
		return out, err
	}
	mp, err := pyramid.BuildMultiband(sc.Bands, 6)
	if err != nil {
		return out, err
	}
	pm, err := linear.Decompose(linear.HPSRisk(),
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		return out, err
	}
	out.mp, out.pm = mp, pm
	return out, nil
})

func BenchmarkE5FlatRetrieval(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progressive.Flat(d.pm.Full(), d.mp, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5ProgModelRetrieval(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progressive.ProgModel(d.pm, d.mp, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5ProgDataRetrieval(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progressive.ProgData(d.pm.Full(), d.mp, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5CombinedRetrieval(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progressive.Combined(d.pm, d.mp, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E6: accuracy metrics ----

var e6Data = sync.OnceValues(func() (struct {
	risk, occ, weights *raster.Grid
}, error) {
	var out struct {
		risk, occ, weights *raster.Grid
	}
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 66, W: 256, H: 256})
	if err != nil {
		return out, err
	}
	mp, err := pyramid.BuildMultiband(sc.Bands, 4)
	if err != nil {
		return out, err
	}
	risk, err := progressive.RiskSurface(linear.HPSRisk(), mp)
	if err != nil {
		return out, err
	}
	norm := risk.Clone()
	lo, hi := norm.MinMax()
	norm.Apply(func(v float64) float64 { return (v - lo) / (hi - lo) })
	occ, err := synth.Outbreak(synth.OutbreakConfig{Seed: 67, BaseRate: -3}, norm)
	if err != nil {
		return out, err
	}
	weights, err := synth.PopulationWeights(68, 256, 256)
	if err != nil {
		return out, err
	}
	out.risk, out.occ, out.weights = risk, occ, weights
	return out, nil
})

func BenchmarkE6ThresholdSweep(b *testing.B) {
	d, err := e6Data()
	if err != nil {
		b.Fatal(err)
	}
	costs := metrics.Costs{Miss: 10, FalseAlarm: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.Sweep(d.risk, d.occ, d.weights, costs, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6PrecisionRecallAtK(b *testing.B) {
	d, err := e6Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.PRAtK(d.risk, d.occ, []int{10, 50, 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: fire-ants FSM retrieval ----

var e7Engine = sync.OnceValues(func() (*core.Engine, error) {
	arch, err := synth.WeatherArchive(synth.WeatherConfig{
		Seed: 71, Regions: 500, Days: 730, MeanTempC: 16,
	})
	if err != nil {
		return nil, err
	}
	// Timing engines disable the serving-layer result cache: these
	// benchmarks measure execution, and a repeated identical query
	// would otherwise be served from memory after the first rep.
	e := core.NewEngineWith(core.Options{CacheEntries: -1})
	if err := e.AddSeries("w", arch); err != nil {
		return nil, err
	}
	return e, nil
})

func BenchmarkE7FSMFlatScan(b *testing.B) {
	e, err := e7Engine()
	if err != nil {
		b.Fatal(err)
	}
	m := fsm.FireAnts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.FSMTopK("w", m, 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7FSMMetadataPruned(b *testing.B) {
	e, err := e7Engine()
	if err != nil {
		b.Fatal(err)
	}
	m := fsm.FireAnts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.FSMTopK("w", m, 10, core.FireAntsPrefilter); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E8: geology knowledge model ----

var e8Engine = sync.OnceValues(func() (*core.Engine, error) {
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 81, Wells: 300})
	if err != nil {
		return nil, err
	}
	e := core.NewEngineWith(core.Options{CacheEntries: -1})
	if err := e.AddWells("basin", wells); err != nil {
		return nil, err
	}
	return e, nil
})

var e8Query = core.GeologyQuery{
	Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
	MaxGapFt: 10,
	MinGamma: 45,
}

func benchGeology(b *testing.B, m core.GeologyMethod) {
	e, err := e8Engine()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.GeologyTopK("basin", e8Query, 10, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8GeologyBruteForce(b *testing.B) { benchGeology(b, core.GeoBruteForce) }
func BenchmarkE8GeologyDP(b *testing.B)         { benchGeology(b, core.GeoDP) }
func BenchmarkE8GeologyPruned(b *testing.B)     { benchGeology(b, core.GeoPruned) }

// ---- E9: shard scaling of the tuple engine ----

// The workload is experiments.ShardWorkload — the same scan-bound
// archive and model benchtab's E9 table measures. On a
// multi-core host the sub-benchmarks trace the speedup curve;
// GOMAXPROCS=1 shows break-even overhead.
var e9Data = sync.OnceValues(func() (struct {
	pts [][]float64
	m   *linear.Model
}, error) {
	var out struct {
		pts [][]float64
		m   *linear.Model
	}
	pts, m, err := experiments.ShardWorkload(experiments.ShardWorkloadSize)
	if err != nil {
		return out, err
	}
	out.pts, out.m = pts, m
	return out, nil
})

func BenchmarkLinearTopKSharded(b *testing.B) {
	d, err := e9Data()
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := core.NewEngineWith(core.Options{Shards: shards, CacheEntries: -1})
			if err := e.AddTuples("t", d.pts); err != nil {
				b.Fatal(err)
			}
			// First query builds the per-shard indexes; keep that out
			// of the timed region.
			if _, _, err := e.LinearTopKTuples("t", d.m, 10); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.LinearTopKTuples("t", d.m, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Unified Run API overhead vs the direct shard fan-out ----

// BenchmarkRunOverhead pins the cost of the Engine.Run request plumbing
// (Request validation, ctx checks, stats normalization) against the
// deprecated per-family entry point on the same engine and workload.
// The two share the execution path, so CI asserts they stay within
// noise of each other — the API redesign must not tax the hot path.
func BenchmarkRunOverhead(b *testing.B) {
	d, err := e9Data()
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewEngineWith(core.Options{Shards: 4, CacheEntries: -1})
	if err := e.AddTuples("t", d.pts); err != nil {
		b.Fatal(err)
	}
	// First query builds the per-shard indexes outside the timed region.
	if _, _, err := e.LinearTopKTuples("t", d.m, 10); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := core.Request{Dataset: "t", Query: core.LinearQuery{Model: d.m}, K: 10}

	b.Run("unified-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy-wrapper", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.LinearTopKTuples("t", d.m, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-shard-fanout", func(b *testing.B) {
		// The pre-redesign execution core, bypassing Request plumbing:
		// raw ShardTopK over the cached per-shard indexes.
		ixs := make([]*onion.Index, 4)
		offs := make([]int, 4)
		n := len(d.pts)
		for s := 0; s < 4; s++ {
			lo, hi := s*n/4, (s+1)*n/4
			ix, err := onion.Build(d.pts[lo:hi], onion.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ixs[s], offs[s] = ix, lo
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := parallel.ShardTopK(4, 10, 0, func(si int, sb *topk.Bound) ([]topk.Item, error) {
				its, _, err := ixs[si].TopKShared(d.m.Coeffs, 10, sb)
				if err != nil {
					return nil, err
				}
				for j := range its {
					its[j].ID += int64(offs[si])
				}
				return its, nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunProgressiveDrain measures the streaming variant with a
// draining consumer, including snapshot assembly and delivery.
func BenchmarkRunProgressiveDrain(b *testing.B) {
	pts, err := synth.GaussianTuples(77, 20_000, 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := linear.New([]string{"a", "b", "c"}, []float64{1, 0.5, -0.25}, 0)
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewEngineWith(core.Options{Shards: 2})
	if err := e.AddTuples("t", pts); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := core.Request{Dataset: "t", Query: core.LinearQuery{Model: m}, K: 10}
	if _, err := e.Run(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := e.RunProgressive(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		for snap := range ch {
			if snap.Err != nil {
				b.Fatal(snap.Err)
			}
		}
	}
}

// ---- Serving layer: RunBatch amortization and the result cache ----

// BenchmarkRunBatch compares a batch of distinct linear requests
// executed as one serving unit (shared worker pool, one admission
// grant) against the same requests issued as individual Runs. Caches
// are disabled on both engines so the comparison is pure execution;
// the cache's own win is BenchmarkCacheHit's subject.
func BenchmarkRunBatch(b *testing.B) {
	d, err := e9Data()
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewEngineWith(core.Options{Shards: 4, CacheEntries: -1})
	if err := e.AddTuples("t", d.pts); err != nil {
		b.Fatal(err)
	}
	const width = 8
	dim := len(d.pts[0])
	reqs := make([]core.Request, width)
	for i := range reqs {
		attrs := make([]string, dim)
		coeffs := make([]float64, dim)
		for j := range coeffs {
			attrs[j] = fmt.Sprintf("x%d", j)
			coeffs[j] = d.m.Coeffs[j] + float64(i)*0.01*float64(j+1)
		}
		m, err := linear.New(attrs, coeffs, 0)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = core.Request{Dataset: "t", Query: core.LinearQuery{Model: m}, K: 10}
	}
	ctx := context.Background()
	// Build the per-shard indexes outside the timed region.
	if _, err := e.Run(ctx, reqs[0]); err != nil {
		b.Fatal(err)
	}

	b.Run("batch-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch, err := e.RunBatch(ctx, reqs)
			if err != nil {
				b.Fatal(err)
			}
			for _, br := range batch {
				if br.Err != nil {
					b.Fatal(br.Err)
				}
			}
		}
	})
	b.Run("solo-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if _, err := e.Run(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCacheHit pins the acceptance criterion: on the linear
// family, a cache hit must be at least 10x cheaper than the cold
// execution it replays (CI compares the two ns/op lines).
func BenchmarkCacheHit(b *testing.B) {
	d, err := e9Data()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		e := core.NewEngineWith(core.Options{Shards: 4, CacheEntries: -1})
		if err := e.AddTuples("t", d.pts); err != nil {
			b.Fatal(err)
		}
		req := core.Request{Dataset: "t", Query: core.LinearQuery{Model: d.m}, K: 10}
		if _, err := e.Run(ctx, req); err != nil { // index build untimed
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		e := core.NewEngineWith(core.Options{Shards: 4})
		if err := e.AddTuples("t", d.pts); err != nil {
			b.Fatal(err)
		}
		req := core.Request{Dataset: "t", Query: core.LinearQuery{Model: d.m}, K: 10}
		if _, err := e.Run(ctx, req); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Run(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.Cache.Hit {
				b.Fatal("benchmark fell off the cache path")
			}
		}
	})
}

// ---- Columnar scan-bound hot path: layout and allocation pins ----

// e10Store builds the E9 scan-bound workload into a columnar store
// (norm-ordered blocks with zone maps) — the storage layout the tuple
// engine's Onion index scans in its weak-pruning regime.
var e10Store = sync.OnceValues(func() (struct {
	store *colstore.Store
	w     []float64
}, error) {
	var out struct {
		store *colstore.Store
		w     []float64
	}
	pts, m, err := experiments.ShardWorkload(experiments.ShardWorkloadSize)
	if err != nil {
		return out, err
	}
	st, err := colstore.Build(pts, colstore.Options{NormOrder: true})
	if err != nil {
		return out, err
	}
	out.store, out.w = st, m.Coeffs
	return out, nil
})

// BenchmarkLinearScanSteadyState is the zero-allocation acceptance
// pin: the columnar blocked scan over the scan-bound workload, with a
// pooled heap and a reused result buffer, must report 0 allocs/op — the
// benchmark fails (not just reports) if a warmed-up scan allocates.
func BenchmarkLinearScanSteadyState(b *testing.B) {
	d, err := e10Store()
	if err != nil {
		b.Fatal(err)
	}
	wNorm := colstore.WeightNorm(d.w)
	h := topk.MustHeap(10)
	buf := make([]topk.Item, 0, 10)
	var st colstore.Stats
	scan := func() {
		h.Reset()
		d.store.Scan(d.w, wNorm, h, nil, nil, nil, &st)
		buf = h.AppendResults(buf[:0])
	}
	scan() // warm the scratch pool
	if allocs := testing.AllocsPerRun(5, scan); allocs != 0 {
		b.Fatalf("steady-state columnar scan allocates %.1f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	if len(buf) != 10 {
		b.Fatalf("scan kept %d items", len(buf))
	}
}

// BenchmarkLinearScanRowLayout is the row-layout ([][]float64)
// sequential scan over the same workload — the baseline the columnar
// path's speedup is measured against (CI gates the ns/op ratio of the
// two benchmarks at >= 1.5x).
func BenchmarkLinearScanRowLayout(b *testing.B) {
	d, err := e9Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := onion.ScanTopK(d.pts, d.m.Coeffs, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLinearScanSteadyStateUnderRace is the race-detector companion of
// BenchmarkLinearScanSteadyState (satellite of the columnar-kernel
// work): the zero-allocation assertion is meaningless under -race
// (sync.Pool intentionally drops puts), so this variant exercises the
// same steady-state loop — pooled scratch, reused heap, reused result
// buffer — WITHOUT allocation counting and pins its results against a
// fresh non-pooled scan each iteration. `go test -race ./...` in CI
// therefore covers the steady-state path in both build modes.
func TestLinearScanSteadyStateUnderRace(t *testing.T) {
	d, err := e10Store()
	if err != nil {
		t.Fatal(err)
	}
	wNorm := colstore.WeightNorm(d.w)
	h := topk.MustHeap(10)
	buf := make([]topk.Item, 0, 10)
	var st colstore.Stats
	for iter := 0; iter < 5; iter++ {
		// Steady-state shape: reused heap and buffer.
		h.Reset()
		d.store.Scan(d.w, wNorm, h, nil, nil, nil, &st)
		buf = h.AppendResults(buf[:0])
		// Non-pooled correctness variant: fresh heap, fresh results.
		fresh := topk.MustHeap(10)
		var fst colstore.Stats
		d.store.Scan(d.w, wNorm, fresh, nil, nil, nil, &fst)
		want := fresh.Results()
		if len(buf) != len(want) {
			t.Fatalf("iter %d: steady-state kept %d items, fresh %d", iter, len(buf), len(want))
		}
		for i := range want {
			if buf[i].ID != want[i].ID || buf[i].Score != want[i].Score {
				t.Fatalf("iter %d pos %d: steady %+v vs fresh %+v", iter, i, buf[i], want[i])
			}
		}
	}
}

// ---- Columnar pyramid scan: layout and allocation pins ----

// BenchmarkSceneScanSteadyState is the pyramid-family zero-allocation
// acceptance pin: the flat-layout branch-and-bound descent with pooled
// heap, pooled scratch and a reused result buffer must report
// 0 allocs/op — the benchmark fails (not just reports) if a warmed-up
// descent allocates.
func BenchmarkSceneScanSteadyState(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	roots := progressive.Roots(d.mp)
	buf := make([]topk.Item, 0, 10)
	scan := func() {
		var err error
		buf, _, err = progressive.CombinedShardAppend(d.pm, d.mp, 10, roots, progressive.DescendOpts{}, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	scan() // warm the pools
	if allocs := testing.AllocsPerRun(5, scan); allocs != 0 {
		b.Fatalf("steady-state pyramid descent allocates %.1f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	if len(buf) != 10 {
		b.Fatalf("descent kept %d items", len(buf))
	}
}

// BenchmarkSceneScanGridRef times the pre-columnar Grid descent on the
// same scene as BenchmarkSceneScanSteadyState; CI gates the ratio of
// the two ns/op lines at >= 1.5x. The benchmark first requires the
// reference and the flat descent to return identical items.
func BenchmarkSceneScanGridRef(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	want, _, err := progressive.CombinedShardAppend(d.pm, d.mp, 10, progressive.Roots(d.mp), progressive.DescendOpts{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	got, err := gridDescendRef(d.pm, d.mp, 10)
	if err != nil {
		b.Fatal(err)
	}
	if len(got) != len(want) {
		b.Fatalf("grid reference kept %d items, flat descent %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			b.Fatalf("pos %d: grid reference %+v, flat descent %+v", i, got[i], want[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridDescendRef(d.pm, d.mp, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// gridCellPQ is the container/heap frontier the descent used before
// the columnar rewrite — interface boxing per push and all.
type gridCellEntry struct {
	level, x, y int
	upper       float64
}
type gridCellPQ []gridCellEntry

func (q gridCellPQ) Len() int           { return len(q) }
func (q gridCellPQ) Less(i, j int) bool { return q[i].upper > q[j].upper }
func (q gridCellPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *gridCellPQ) Push(v any)        { *q = append(*q, v.(gridCellEntry)) }
func (q *gridCellPQ) Pop() (v any)      { old := *q; n := len(old); v = old[n-1]; *q = old[:n-1]; return }

// gridDescendRef is a faithful copy of the pre-columnar Combined
// descent: map-based binding, per-band Grid pointer chases for every
// envelope and pixel read, fresh frontier/heap/buffers per call. It is
// the reference BenchmarkSceneScanGridRef times and checks the flat
// descent against.
func gridDescendRef(pm *linear.ProgressiveModel, mp *pyramid.MultibandPyramid, k int) ([]topk.Item, error) {
	m := pm.Full()
	bind, err := progressive.Bind(m, mp)
	if err != nil {
		return nil, err
	}
	h := topk.MustHeap(k)
	nTerms := m.NumTerms()
	lo := make([]float64, nTerms)
	hi := make([]float64, nTerms)
	x := make([]float64, nTerms)
	w := mp.Band(0).Level(0).Mean.Width()

	bound := func(level, cx, cy int) (float64, error) {
		for i, b := range bind.Bands {
			l := mp.Band(b).Level(level)
			lo[i] = l.Min.At(cx, cy)
			hi[i] = l.Max.At(cx, cy)
		}
		_, ub, err := m.Interval(lo, hi)
		return ub, err
	}
	pq := &gridCellPQ{}
	heap.Init(pq)
	for _, c := range progressive.Roots(mp) {
		ub, err := bound(c.Level, c.X, c.Y)
		if err != nil {
			return nil, err
		}
		heap.Push(pq, gridCellEntry{level: c.Level, x: c.X, y: c.Y, upper: ub})
	}
	for pq.Len() > 0 {
		e := heap.Pop(pq).(gridCellEntry)
		if f, ok := h.Threshold(); ok && e.upper < f {
			break
		}
		if e.level == 0 {
			for i, b := range bind.Bands {
				x[i] = mp.Band(b).Level(0).Mean.At(e.x, e.y)
			}
			c := pm.EvalLevelUnchecked(0, x)
			if f, ok := h.Threshold(); ok && c+pm.Resid(0) < f {
				continue
			}
			h.OfferScore(int64(e.y*w+e.x), m.EvalUnchecked(x))
			continue
		}
		fine := mp.Band(0).Level(e.level - 1).Mean
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				nx, ny := 2*e.x+dx, 2*e.y+dy
				if nx >= fine.Width() || ny >= fine.Height() {
					continue
				}
				ub, err := bound(e.level-1, nx, ny)
				if err != nil {
					return nil, err
				}
				heap.Push(pq, gridCellEntry{level: e.level - 1, x: nx, y: ny, upper: ub})
			}
		}
	}
	return h.Results(), nil
}
