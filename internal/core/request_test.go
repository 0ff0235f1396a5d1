package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"modelir/internal/bayes"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/progressive"
	"modelir/internal/sproc"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

func testLinearModel(t *testing.T) *linear.Model {
	t.Helper()
	m, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testGeoQuery() GeologyQuery {
	return GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
	}
}

// TestRunDetailAllFamilies pins Run on every family across shard
// counts 1, 4 and 7: linear answers match brute force, and the
// normalized stats agree with each family's detail stats.
func TestRunDetailAllFamilies(t *testing.T) {
	a := buildArchives(t)
	lm := testLinearModel(t)
	geoQ := testGeoQuery()
	machine := fsm.FireAnts()
	ctx := context.Background()

	for _, shards := range []int{1, 4, 7} {
		e := engineWithArchives(t, shards, a)

		// Linear over tuples, cross-checked against direct evaluation.
		res, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		bestID, bestScore := -1, math.Inf(-1)
		for i, p := range a.pts {
			if s, _ := lm.Eval(p); s > bestScore {
				bestID, bestScore = i, s
			}
		}
		if res.Items[0].ID != int64(bestID) || res.Items[0].Score != bestScore {
			t.Fatalf("shards=%d linear top %d/%v, brute force %d/%v",
				shards, res.Items[0].ID, res.Items[0].Score, bestID, bestScore)
		}
		det, ok := res.Stats.Detail.(LinearTupleStats)
		if !ok {
			t.Fatalf("shards=%d linear detail %+v", shards, res.Stats.Detail)
		}
		if res.Stats.Kind != KindLinear || res.Stats.Shards != shards ||
			res.Stats.Evaluations != det.Indexed.PointsTouched ||
			res.Stats.Pruned != det.ScanCost-det.Indexed.PointsTouched ||
			res.Stats.Truncated || res.Stats.Wall <= 0 {
			t.Fatalf("shards=%d linear stats %+v", shards, res.Stats)
		}

		// Progressive linear over the scene.
		sRes, err := e.Run(ctx, Request{Dataset: "hps", Query: SceneQuery{Model: a.pm}, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		sDet := sRes.Stats.Detail.(progressive.Stats)
		if sRes.Stats.Evaluations != sDet.Work() || sRes.Stats.Kind != KindLinear {
			t.Fatalf("shards=%d scene stats %+v vs work %d", shards, sRes.Stats, sDet.Work())
		}

		// Finite-state score and distance ranking.
		fRes, err := e.Run(ctx, Request{
			Dataset: "weather",
			Query:   FSMQuery{Machine: machine, Prefilter: FireAntsPrefilter},
			K:       10,
		})
		if err != nil {
			t.Fatal(err)
		}
		fDet := fRes.Stats.Detail.(FSMStats)
		if fRes.Stats.Pruned != fDet.RegionsPruned ||
			fRes.Stats.Evaluations != fDet.DaysScanned ||
			fRes.Stats.Kind != KindFiniteState {
			t.Fatalf("shards=%d fsm stats %+v vs detail %+v", shards, fRes.Stats, fDet)
		}

		if _, err := e.Run(ctx, Request{
			Dataset: "weather",
			Query:   FSMDistanceQuery{Target: machine, Horizon: 8},
			K:       5,
		}); err != nil {
			t.Fatal(err)
		}

		// Knowledge over wells (geology).
		gq := geoQ
		gq.Method = GeoPruned
		gRes, err := e.Run(ctx, Request{Dataset: "basin", Query: gq, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WellMatches(gRes.Items); err != nil {
			t.Fatal(err)
		}
		gDet := gRes.Stats.Detail.(sproc.Stats)
		if gRes.Stats.Evaluations != gDet.UnaryEvals+gDet.PairEvals ||
			gRes.Stats.Kind != KindKnowledge {
			t.Fatalf("geology shards=%d stats %+v vs detail %+v", shards, gRes.Stats, gDet)
		}

		// Knowledge over scene tiles.
		kRes, err := e.Run(ctx, Request{Dataset: "hps", Query: KnowledgeQuery{Rules: HPSTileRules()}, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		kDet := kRes.Stats.Detail.(KnowledgeStats)
		if kRes.Stats.Examined != kDet.TilesScored || kRes.Stats.Kind != KindKnowledge {
			t.Fatalf("knowledge shards=%d stats %+v vs detail %+v", shards, kRes.Stats, kDet)
		}
	}
}

// TestRunWorkerOverride pins that the worker-pool width changes
// scheduling only, never results.
func TestRunWorkerOverride(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx := context.Background()
	var want []topk.Item
	for _, workers := range []int{1, 2, 5} {
		res, err := e.Run(ctx, Request{
			Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 8, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.Items
			continue
		}
		itemsEqual(t, fmt.Sprintf("workers=%d", workers), res.Items, want)
	}
}

func TestRunValidation(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 2, a)
	lm := testLinearModel(t)
	ctx := context.Background()

	cases := []struct {
		name string
		req  Request
	}{
		{"nil query", Request{Dataset: "gauss"}},
		{"negative K", Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: -1}},
		{"negative budget", Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, Budget: -1}},
		{"negative workers", Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, Workers: -1}},
		{"nil linear model", Request{Dataset: "gauss", Query: LinearQuery{}}},
		{"nil scene model", Request{Dataset: "hps", Query: SceneQuery{}}},
		{"nil machine", Request{Dataset: "weather", Query: FSMQuery{}}},
		{"nil distance target", Request{Dataset: "weather", Query: FSMDistanceQuery{}}},
		{"empty geology sequence", Request{Dataset: "basin", Query: GeologyQuery{}}},
		{"bad geology method", Request{Dataset: "basin", Query: GeologyQuery{
			Sequence: []synth.Lithology{synth.Shale}, Method: GeologyMethod(99),
		}}},
		{"empty rule set", Request{Dataset: "hps", Query: KnowledgeQuery{}}},
		{"unknown tuples", Request{Dataset: "nope", Query: LinearQuery{Model: lm}}},
		{"unknown scene", Request{Dataset: "nope", Query: SceneQuery{Model: a.pm}}},
		{"unknown series", Request{Dataset: "nope", Query: FSMQuery{Machine: fsm.FireAnts()}}},
		{"unknown wells", Request{Dataset: "nope", Query: testGeoQuery()}},
	}
	for _, c := range cases {
		if _, err := e.Run(ctx, c.req); err == nil {
			t.Fatalf("%s: want error", c.name)
		}
		// RunProgressive rejects malformed requests synchronously;
		// dataset and model errors surface on the stream instead.
		ch, err := e.RunProgressive(ctx, c.req)
		if err != nil {
			continue
		}
		var last Snapshot
		for s := range ch {
			last = s
		}
		if last.Err == nil {
			t.Fatalf("%s: progressive stream ended without error", c.name)
		}
	}

	nan := math.NaN()
	if _, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, MinScore: &nan}); err == nil {
		t.Fatal("NaN MinScore: want error")
	}

	// K defaulting: zero means DefaultK on the unified path.
	res, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != DefaultK {
		t.Fatalf("defaulted K returned %d items, want %d", len(res.Items), DefaultK)
	}
}

// TestRunExpiredDeadlineAllFamilies pins the cancellation contract at
// the entry: a request whose deadline has already passed returns
// ctx.Err() on every family without doing archive work.
func TestRunExpiredDeadlineAllFamilies(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	queries := map[string]Request{
		"linear":    {Dataset: "gauss", Query: LinearQuery{Model: lm}},
		"scene":     {Dataset: "hps", Query: SceneQuery{Model: a.pm}},
		"fsm":       {Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}},
		"fsm-dist":  {Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 6}},
		"geology":   {Dataset: "basin", Query: testGeoQuery()},
		"knowledge": {Dataset: "hps", Query: KnowledgeQuery{Rules: HPSTileRules()}},
	}
	for name, req := range queries {
		if _, err := e.Run(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: got %v, want DeadlineExceeded", name, err)
		}
	}
}

// TestRunCancelMidQueryFSM proves deterministically that cancellation
// aborts shard work mid-scan: a prefilter blocks the scan until the
// test cancels, and the per-region context check must then surface
// ctx.Err() long before the archive is exhausted.
func TestRunCancelMidQueryFSM(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	started := make(chan struct{})
	var once func()
	once = func() { close(started); once = func() {} }
	pre := func(s synth.DrySpellStats) bool {
		once()
		<-ctx.Done() // park the scan until the test cancels
		return true
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, Request{
			Dataset: "weather",
			Query:   FSMQuery{Machine: fsm.FireAnts(), Prefilter: pre},
			K:       5,
			Workers: 1, // single worker: the park blocks the whole scan
		})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query did not return")
	}
}

// TestRunCancelMidQueryKnowledge is the deterministic mid-scan abort
// for the tile path: a rule membership cancels the context from inside
// the first scored tile, and the per-tile check must stop the scan.
func TestRunCancelMidQueryKnowledge(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 2, a)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rules := bayes.NewRuleSet().Require("b4.mean", cancellingMembership{cancel: cancel})
	_, err := e.Run(ctx, Request{Dataset: "hps", Query: KnowledgeQuery{Rules: rules}, K: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

type cancellingMembership struct{ cancel context.CancelFunc }

func (m cancellingMembership) Grade(float64) float64 {
	m.cancel()
	return 1
}

// TestRunProgressiveSceneSnapshots pins the streaming contract on a
// multi-level scene query: at least two snapshots, monotonically
// improving, ending in a Final snapshot identical to Run's result.
// Shards: 1 makes the emission sequence deterministic.
func TestRunProgressiveSceneSnapshots(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 1, a)
	req := Request{Dataset: "hps", Query: SceneQuery{Model: a.pm}, K: 10}

	want, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.RunProgressive(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	for s := range ch {
		snaps = append(snaps, s)
	}
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots, want >= 2", len(snaps))
	}
	fin := snaps[len(snaps)-1]
	if !fin.Final || fin.Err != nil {
		t.Fatalf("terminal snapshot %+v", fin)
	}
	itemsEqual(t, "final snapshot", fin.Items, want.Items)
	if fin.Stats.Evaluations != want.Stats.Evaluations || fin.Stats.Kind != want.Stats.Kind {
		t.Fatalf("final stats %+v vs run %+v", fin.Stats, want.Stats)
	}
	// Snapshots improve monotonically: the worst retained score never
	// drops, items stay best-first, Seq increments, and at least one
	// strict improvement separates the first snapshot from the final
	// answer on a multi-level query.
	for i, s := range snaps {
		if s.Seq != i {
			t.Fatalf("snapshot %d has Seq %d", i, s.Seq)
		}
		for j := 1; j < len(s.Items); j++ {
			prev, cur := s.Items[j-1], s.Items[j]
			if cur.Score > prev.Score || (cur.Score == prev.Score && cur.ID < prev.ID) {
				t.Fatalf("snapshot %d not best-first at %d", i, j)
			}
		}
		if i == 0 {
			continue
		}
		prev, cur := snaps[i-1], s
		if len(cur.Items) < len(prev.Items) {
			t.Fatalf("snapshot %d shrank: %d -> %d items", i, len(prev.Items), len(cur.Items))
		}
		if len(prev.Items) > 0 && len(cur.Items) == len(prev.Items) {
			if cur.Items[len(cur.Items)-1].Score < prev.Items[len(prev.Items)-1].Score {
				t.Fatalf("snapshot %d regressed: kth score %v -> %v", i,
					prev.Items[len(prev.Items)-1].Score, cur.Items[len(cur.Items)-1].Score)
			}
		}
	}
	first := snaps[0]
	if len(first.Items) == len(fin.Items) {
		same := true
		for i := range first.Items {
			if first.Items[i] != fin.Items[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("first snapshot already equals the final answer; no improvement streamed")
		}
	}
}

// TestRunProgressiveAllFamiliesStream smoke-tests that every family
// streams and terminates with Run's exact result.
func TestRunProgressiveAllFamiliesStream(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	gq := testGeoQuery()
	gq.Method = GeoDP
	reqs := map[string]Request{
		"linear":    {Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 8},
		"scene":     {Dataset: "hps", Query: SceneQuery{Model: a.pm}, K: 8},
		"fsm":       {Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 8},
		"fsm-dist":  {Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 6}, K: 8},
		"geology":   {Dataset: "basin", Query: gq, K: 8},
		"knowledge": {Dataset: "hps", Query: KnowledgeQuery{Rules: HPSTileRules()}, K: 8},
	}
	for name, req := range reqs {
		want, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := e.RunProgressive(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var last Snapshot
		n := 0
		for s := range ch {
			last = s
			n++
		}
		if n < 1 || !last.Final || last.Err != nil {
			t.Fatalf("%s: %d snapshots, terminal %+v", name, n, last)
		}
		itemsEqual(t, name+" progressive final", last.Items, want.Items)
	}
}

// TestRunProgressiveConsumerCancel checks that abandoning a stream and
// cancelling the context terminates the query instead of leaking its
// workers.
func TestRunProgressiveConsumerCancel(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 2, a)
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := e.RunProgressive(ctx, Request{Dataset: "hps", Query: SceneQuery{Model: a.pm}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	first, ok := <-ch
	if !ok {
		t.Fatal("stream closed before first snapshot")
	}
	if first.Err != nil {
		t.Fatalf("first snapshot errored: %v", first.Err)
	}
	cancel()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case s, ok := <-ch:
			if !ok {
				return // stream terminated: workers released
			}
			if s.Final && s.Err != nil && !errors.Is(s.Err, context.Canceled) {
				t.Fatalf("terminal error %v, want context.Canceled", s.Err)
			}
		case <-deadline:
			t.Fatal("stream did not terminate after cancel")
		}
	}
}

// TestRunProgressiveErrorStream pins that request failures surface as a
// single terminal snapshot carrying the error.
func TestRunProgressiveErrorStream(t *testing.T) {
	e := NewEngine()
	lm := testLinearModel(t)
	ch, err := e.RunProgressive(context.Background(), Request{Dataset: "nope", Query: LinearQuery{Model: lm}})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	for s := range ch {
		snaps = append(snaps, s)
	}
	if len(snaps) != 1 || !snaps[0].Final || !errors.Is(snaps[0].Err, ErrUnknownDataset) {
		t.Fatalf("snapshots %+v", snaps)
	}
}

// TestRunBudget pins the budget contract: a tiny budget truncates (the
// scan stops early, flagged, no error), a generous budget changes
// nothing.
func TestRunBudget(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx := context.Background()

	full, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10, Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !tiny.Stats.Truncated {
		t.Fatalf("budget 8 not truncated: %+v", tiny.Stats)
	}
	if tiny.Stats.Evaluations >= full.Stats.Evaluations {
		t.Fatalf("budgeted run did %d evals, unbudgeted %d", tiny.Stats.Evaluations, full.Stats.Evaluations)
	}
	// Pruned must credit screening only: examined + pruned +
	// budget-skipped partition the archive exactly.
	tdet, ok := tiny.Stats.Detail.(LinearTupleStats)
	if !ok {
		t.Fatalf("detail %T", tiny.Stats.Detail)
	}
	if tdet.Indexed.PointsSkippedByBudget == 0 {
		t.Fatal("truncated run recorded no budget skips")
	}
	if tiny.Stats.Examined+tiny.Stats.Pruned+tdet.Indexed.PointsSkippedByBudget != tdet.ScanCost {
		t.Fatalf("examined %d + pruned %d + skipped %d != scan cost %d",
			tiny.Stats.Examined, tiny.Stats.Pruned, tdet.Indexed.PointsSkippedByBudget, tdet.ScanCost)
	}
	big, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10, Budget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if big.Stats.Truncated {
		t.Fatal("generous budget flagged truncated")
	}
	itemsEqual(t, "generous budget", big.Items, full.Items)

	// Same contract on a scan-shaped family.
	fullF, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	tinyF, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 10, Budget: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !tinyF.Stats.Truncated || tinyF.Stats.Evaluations >= fullF.Stats.Evaluations {
		t.Fatalf("fsm budget: tiny %+v vs full %+v", tinyF.Stats, fullF.Stats)
	}
	// Examined must count regions actually scanned, not the dataset
	// total: a truncated scan inspected strictly fewer candidates.
	if tinyF.Stats.Examined >= fullF.Stats.Examined {
		t.Fatalf("fsm budget examined %d >= full %d", tinyF.Stats.Examined, fullF.Stats.Examined)
	}
}

// TestRunMinScore pins the score-floor contract: results equal the
// unrestricted run filtered at the floor (inclusive), on a family that
// consults the screening bound (linear) and one that post-filters only
// (fsm).
func TestRunMinScore(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx := context.Background()

	full, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Items) < 4 {
		t.Fatalf("fixture too small: %d items", len(full.Items))
	}
	floor := full.Items[3].Score // keeps exactly the top 4 (scores are distinct here)
	res, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10, MinScore: &floor})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]topk.Item, 0, 4)
	for _, it := range full.Items {
		if it.Score >= floor {
			want = append(want, it)
		}
	}
	itemsEqual(t, "linear minscore", res.Items, want)

	fullF, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(fullF.Items) == 0 {
		t.Fatal("fsm fixture returned no items")
	}
	mid := fullF.Items[len(fullF.Items)/2].Score
	resF, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 10, MinScore: &mid})
	if err != nil {
		t.Fatal(err)
	}
	wantF := make([]topk.Item, 0, len(fullF.Items))
	for _, it := range fullF.Items {
		if it.Score >= mid {
			wantF = append(wantF, it)
		}
	}
	itemsEqual(t, "fsm minscore", resF.Items, wantF)
}
