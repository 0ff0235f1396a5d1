package core

import (
	"context"
	"math"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/progressive"
	"modelir/internal/sproc"
	"modelir/internal/synth"
)

// runQ runs one query through Run with a background context.
func runQ(e *Engine, dataset string, q Query, k int) (Result, error) {
	return e.Run(context.Background(), Request{Dataset: dataset, Query: q, K: k})
}

func engineWithTuples(t *testing.T) (*Engine, [][]float64) {
	t.Helper()
	e := NewEngine()
	pts, err := synth.GaussianTuples(3, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTuples("gauss", pts); err != nil {
		t.Fatal(err)
	}
	return e, pts
}

func TestRegistrationErrors(t *testing.T) {
	e := NewEngine()
	if err := e.AddTuples("x", nil); err == nil {
		t.Fatal("want empty tuples error")
	}
	pts, _ := synth.GaussianTuples(1, 10, 2)
	if err := e.AddTuples("x", pts); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTuples("x", pts); err == nil {
		t.Fatal("want duplicate error")
	}
	if err := e.AddScene("s", nil); err == nil {
		t.Fatal("want nil scene error")
	}
	if err := e.AddSeries("w", nil); err == nil {
		t.Fatal("want empty series error")
	}
	if err := e.AddWells("g", nil); err == nil {
		t.Fatal("want empty wells error")
	}
	if _, err := e.Scene("missing"); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestModelKindString(t *testing.T) {
	if KindLinear.String() != "linear" || KindFiniteState.String() != "finite-state" ||
		KindKnowledge.String() != "knowledge" || ModelKind(0).String() != "unknown" {
		t.Fatal("kind names wrong")
	}
}

func TestLinearTopKTuples(t *testing.T) {
	e, pts := engineWithTuples(t)
	m, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runQ(e, "gauss", LinearQuery{Model: m}, 5)
	if err != nil {
		t.Fatal(err)
	}
	items, st := res.Items, res.Stats.Detail.(LinearTupleStats)
	if len(items) != 5 {
		t.Fatalf("got %d items", len(items))
	}
	// Verify against direct evaluation, including the intercept shift.
	bestID, bestScore := -1, math.Inf(-1)
	for i, p := range pts {
		s, _ := m.Eval(p)
		if s > bestScore {
			bestID, bestScore = i, s
		}
	}
	if items[0].ID != int64(bestID) || math.Abs(items[0].Score-bestScore) > 1e-12 {
		t.Fatalf("top item %d/%v want %d/%v", items[0].ID, items[0].Score, bestID, bestScore)
	}
	if st.Indexed.PointsTouched >= st.ScanCost {
		t.Fatalf("index touched %d >= scan %d", st.Indexed.PointsTouched, st.ScanCost)
	}
	// Cached index reused on second query.
	if _, err := runQ(e, "gauss", LinearQuery{Model: m}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := runQ(e, "missing", LinearQuery{Model: m}, 1); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestSceneTopK(t *testing.T) {
	e := NewEngine()
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 4, W: 64, H: 64})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 16, PyramidLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddScene("hps", ar); err != nil {
		t.Fatal(err)
	}
	pm, err := linear.Decompose(linear.HPSRisk(),
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runQ(e, "hps", SceneQuery{Model: pm}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 10 {
		t.Fatalf("items=%d", len(res.Items))
	}
	if res.Stats.Detail.(progressive.Stats).Work() == 0 {
		t.Fatal("no work recorded")
	}
	if _, err := runQ(e, "missing", SceneQuery{Model: pm}, 1); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestFSMTopKWithPruning(t *testing.T) {
	e := NewEngine()
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 6, Regions: 40, Days: 365})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("weather", arch); err != nil {
		t.Fatal(err)
	}
	m := fsm.FireAnts()

	baseRes, err := runQ(e, "weather", FSMQuery{Machine: m}, 10)
	if err != nil {
		t.Fatal(err)
	}
	prunedRes, err := runQ(e, "weather", FSMQuery{Machine: m, Prefilter: FireAntsPrefilter}, 10)
	if err != nil {
		t.Fatal(err)
	}
	base, baseSt := baseRes.Items, baseRes.Stats.Detail.(FSMStats)
	pruned, prunedSt := prunedRes.Items, prunedRes.Stats.Detail.(FSMStats)
	if len(base) != len(pruned) {
		t.Fatalf("result sizes differ: %d vs %d", len(base), len(pruned))
	}
	for i := range base {
		if base[i].ID != pruned[i].ID || base[i].Score != pruned[i].Score {
			t.Fatalf("pruning changed results at %d: %+v vs %+v", i, base[i], pruned[i])
		}
	}
	if prunedSt.DaysScanned > baseSt.DaysScanned {
		t.Fatal("pruning increased scan work")
	}
	if baseSt.RegionsTotal != 40 {
		t.Fatalf("regions total %d", baseSt.RegionsTotal)
	}
	if _, err := runQ(e, "missing", FSMQuery{Machine: m}, 1); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestFSMDistanceRank(t *testing.T) {
	e := NewEngine()
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 7, Regions: 10, Days: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("weather", arch); err != nil {
		t.Fatal(err)
	}
	res, err := runQ(e, "weather", FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	items := res.Items
	if len(items) != 5 {
		t.Fatalf("items=%d", len(items))
	}
	// Data consistent with the reference machine extracts the reference
	// exactly, so every region scores 1.
	for _, it := range items {
		if it.Score != 1 {
			t.Fatalf("region %d score %v want 1", it.ID, it.Score)
		}
	}
	if _, err := runQ(e, "missing", FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 5}, 1); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestGeologyTopKFindsPlantedWells(t *testing.T) {
	e := NewEngine()
	wells, planted, err := synth.WellArchive(synth.WellConfig{Seed: 8, Wells: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddWells("basin", wells); err != nil {
		t.Fatal(err)
	}
	q := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
	}
	// Natural shale/sandstone/siltstone sequences can also score 1, so
	// retrieve every well to check the planted ones are all present.
	k := len(wells)

	geology := func(method GeologyMethod) ([]WellMatch, sproc.Stats) {
		t.Helper()
		gq := q
		gq.Method = method
		res, err := runQ(e, "basin", gq, k)
		if err != nil {
			t.Fatal(err)
		}
		matches, err := WellMatches(res.Items)
		if err != nil {
			t.Fatal(err)
		}
		return matches, res.Stats.Detail.(sproc.Stats)
	}
	dp, dpSt := geology(GeoDP)
	pruned, prSt := geology(GeoPruned)
	if len(dp) != len(pruned) {
		t.Fatalf("dp %d vs pruned %d wells", len(dp), len(pruned))
	}
	for i := range dp {
		if dp[i].Well != pruned[i].Well || math.Abs(dp[i].Score-pruned[i].Score) > 1e-12 {
			t.Fatalf("method mismatch at %d: %+v vs %+v", i, dp[i], pruned[i])
		}
	}
	// Every planted well must be retrieved with a perfect score.
	found := make(map[int]bool)
	for _, m := range dp {
		if m.Score == 1 {
			found[m.Well] = true
		}
	}
	for _, w := range planted {
		if !found[w] {
			t.Fatalf("planted well %d not retrieved at score 1", w)
		}
	}
	// Retrieved strata must actually satisfy the oracle.
	for _, m := range dp {
		if m.Score == 1 && !synth.HasRiverbedSignature(wells[m.Well], q.MaxGapFt, q.MinGamma) {
			t.Fatalf("well %d scored 1 but fails the oracle", m.Well)
		}
	}
	if prSt.PairEvals > dpSt.PairEvals {
		t.Fatal("pruned method did more pair work than DP")
	}
}

func TestGeologyValidation(t *testing.T) {
	e := NewEngine()
	wells, _, _ := synth.WellArchive(synth.WellConfig{Seed: 9, Wells: 5})
	if err := e.AddWells("b", wells); err != nil {
		t.Fatal(err)
	}
	bad := GeologyQuery{Method: GeoDP}
	if _, err := runQ(e, "b", bad, 1); err == nil {
		t.Fatal("want empty sequence error")
	}
	q := GeologyQuery{Sequence: []synth.Lithology{synth.Shale}, MaxGapFt: -1, Method: GeoDP}
	if _, err := runQ(e, "b", q, 1); err == nil {
		t.Fatal("want negative gap error")
	}
	ok := GeologyQuery{Sequence: []synth.Lithology{synth.Shale}, MinGamma: 45, Method: GeoDP}
	if _, err := runQ(e, "missing", ok, 1); err == nil {
		t.Fatal("want unknown dataset error")
	}
	ok.Method = GeologyMethod(99)
	if _, err := runQ(e, "b", ok, 1); err == nil {
		t.Fatal("want unknown method error")
	}
}

func TestWorkflowFig5(t *testing.T) {
	wf, err := NewWorkflow([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkflow(nil); err == nil {
		t.Fatal("want attrs error")
	}
	// Hypothesize an expert model (step 1).
	hyp, _ := linear.New([]string{"a", "b"}, []float64{1, 1}, 0)
	if err := wf.Hypothesize(hyp); err != nil {
		t.Fatal(err)
	}
	badHyp, _ := linear.New([]string{"a"}, []float64{1}, 0)
	if err := wf.Hypothesize(badHyp); err == nil {
		t.Fatal("want shape error")
	}
	// True model: y = 2a - b + 1.
	gen := func(n int, seed int64) ([][]float64, []float64) {
		xs := make([][]float64, n)
		ys := make([]float64, n)
		s := seed
		for i := range xs {
			s = s*6364136223846793005 + 1442695040888963407
			a := float64(s%1000)/500 - 1
			s = s*6364136223846793005 + 1442695040888963407
			b := float64(s%1000)/500 - 1
			xs[i] = []float64{a, b}
			ys[i] = 2*a - b + 1
		}
		return xs, ys
	}
	xs, ys := gen(50, 1)
	m, err := wf.Calibrate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coeffs[0]-2) > 0.01 || math.Abs(m.Coeffs[1]+1) > 0.01 {
		t.Fatalf("calibrated coeffs %v", m.Coeffs)
	}
	// Revise with more data (step 4): still consistent, refit sharpens.
	xs2, ys2 := gen(100, 99)
	m2, err := wf.Revise(xs2, ys2)
	if err != nil {
		t.Fatal(err)
	}
	if wf.TrainingSize() != 150 || wf.Revisions != 2 {
		t.Fatalf("training=%d revisions=%d", wf.TrainingSize(), wf.Revisions)
	}
	if math.Abs(m2.Intercept-1) > 0.01 {
		t.Fatalf("revised intercept %v", m2.Intercept)
	}
	if wf.Model() != m2 {
		t.Fatal("Model() stale")
	}
	// Revise-before-calibrate on a fresh workflow errors.
	wf2, _ := NewWorkflow([]string{"a"})
	if _, err := wf2.Revise([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("want revise-before-calibrate error")
	}
	if _, err := wf.Calibrate(nil, nil); err == nil {
		t.Fatal("want bad rows error")
	}
	if _, err := wf.Revise([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("want row shape error")
	}
}
