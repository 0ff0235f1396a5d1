package core

import (
	"context"
	"math"
	"testing"

	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/sproc"
	"modelir/internal/synth"
)

// runWorkers runs one query through Run on a pinned worker pool
// (0 = GOMAXPROCS).
func runWorkers(e *Engine, dataset string, q Query, k, workers int) (Result, error) {
	return e.Run(context.Background(), Request{Dataset: dataset, Query: q, K: k, Workers: workers})
}

func TestFSMTopKParallelMatchesSerial(t *testing.T) {
	e := NewEngine()
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 12, Regions: 80, Days: 365})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("w", arch); err != nil {
		t.Fatal(err)
	}
	q := FSMQuery{Machine: fsm.FireAnts(), Prefilter: FireAntsPrefilter}
	serialRes, err := runWorkers(e, "w", q, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	serial, serialSt := serialRes.Items, serialRes.Stats.Detail.(FSMStats)
	for _, workers := range []int{1, 2, 8, 100} {
		parRes, err := runWorkers(e, "w", q, 10, workers)
		if err != nil {
			t.Fatal(err)
		}
		par, parSt := parRes.Items, parRes.Stats.Detail.(FSMStats)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d vs %d results", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i].ID != serial[i].ID || par[i].Score != serial[i].Score {
				t.Fatalf("workers=%d pos %d: %+v vs %+v", workers, i, par[i], serial[i])
			}
		}
		if parSt.RegionsPruned != serialSt.RegionsPruned ||
			parSt.DaysScanned != serialSt.DaysScanned {
			t.Fatalf("workers=%d stats diverged: %+v vs %+v", workers, parSt, serialSt)
		}
	}
	if _, err := runWorkers(e, "missing", FSMQuery{Machine: q.Machine}, 1, 2); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestGeologyTopKParallelMatchesSerial(t *testing.T) {
	e := NewEngine()
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 13, Wells: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddWells("b", wells); err != nil {
		t.Fatal(err)
	}
	q := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
		Method:   GeoPruned,
	}
	geology := func(workers int) ([]WellMatch, sproc.Stats) {
		t.Helper()
		res, err := runWorkers(e, "b", q, 20, workers)
		if err != nil {
			t.Fatal(err)
		}
		matches, err := WellMatches(res.Items)
		if err != nil {
			t.Fatal(err)
		}
		return matches, res.Stats.Detail.(sproc.Stats)
	}
	serial, serialSt := geology(0)
	par, parSt := geology(8)
	if len(par) != len(serial) {
		t.Fatalf("%d vs %d results", len(par), len(serial))
	}
	for i := range serial {
		if par[i].Well != serial[i].Well || math.Abs(par[i].Score-serial[i].Score) > 1e-12 {
			t.Fatalf("pos %d: %+v vs %+v", i, par[i], serial[i])
		}
	}
	if parSt.PairEvals != serialSt.PairEvals {
		t.Fatalf("stats diverged: %d vs %d pair evals", parSt.PairEvals, serialSt.PairEvals)
	}
	if _, err := runWorkers(e, "b", GeologyQuery{Method: GeoDP}, 1, 2); err == nil {
		t.Fatal("want validation error")
	}
	if _, err := runWorkers(e, "missing", q, 1, 2); err == nil {
		t.Fatal("want unknown dataset error")
	}
	q.Method = GeologyMethod(99)
	if _, err := runWorkers(e, "b", q, 1, 2); err == nil {
		t.Fatal("want unknown method error")
	}
}

func TestScanTopKTuplesParallel(t *testing.T) {
	e := NewEngine()
	pts, err := synth.GaussianTuples(14, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTuples("t", pts); err != nil {
		t.Fatal(err)
	}
	coeffs := []float64{1, -2, 0.5}
	par, err := e.ScanTopKTuplesParallel("t", coeffs, 3, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the indexed path.
	m, err := linear.New([]string{"a", "b", "c"}, coeffs, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkers(e, "t", LinearQuery{Model: m}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	indexed := res.Items
	for i := range indexed {
		if par[i].ID != indexed[i].ID || math.Abs(par[i].Score-indexed[i].Score) > 1e-12 {
			t.Fatalf("pos %d: scan %+v vs indexed %+v", i, par[i], indexed[i])
		}
	}
	if _, err := e.ScanTopKTuplesParallel("missing", coeffs, 0, 1, 2); err == nil {
		t.Fatal("want unknown dataset error")
	}
	if _, err := e.ScanTopKTuplesParallel("t", []float64{1}, 0, 1, 2); err == nil {
		t.Fatal("want dimension error")
	}
}
