package main

// Answer checking. The benchmark builds the same archives modelird
// builds, from the same public generators and seeds, into an in-process
// reference engine, and compares every answer with it. A dataset that
// nothing appends to is compared exactly, by IDs and scores. A dataset
// that receives appends changes under the queries, and appended tuples
// take IDs in arrival order, which depends on scheduling; its answers
// are checked for the order property they must keep during the run,
// and exactly, keyed on row content and score, once the run is over.

import (
	"fmt"
	"math/rand"
	"slices"

	"modelir"
)

// answer is one ranked item as modelird returns it.
type answer struct {
	ID     int64   `json:"id"`
	Score  float64 `json:"score"`
	Strata []int   `json:"strata,omitempty"`
}

func answersOf(res modelir.Result) []answer {
	out := make([]answer, len(res.Items))
	for i, it := range res.Items {
		out[i] = answer{ID: it.ID, Score: it.Score}
		if s, ok := it.Payload.([]int); ok {
			out[i].Strata = s
		}
	}
	return out
}

// archives are the four demo archives modelird serves.
type archives struct {
	pts     [][]float64
	scene   *modelir.SceneArchive
	weather []modelir.RegionSeries
	wells   []modelir.WellLog
}

// genArchives generates the archives exactly as modelird -seed seed
// does for the workload's sizes.
func genArchives(w *workload, seed int64) (*archives, error) {
	a := &archives{}
	var err error
	if a.pts, err = modelir.GenerateTuples(seed, w.tuples, 3); err != nil {
		return nil, fmt.Errorf("tuples: %w", err)
	}
	sc, err := modelir.GenerateScene(modelir.SceneConfig{Seed: seed + 1, W: w.scene, H: w.scene})
	if err != nil {
		return nil, fmt.Errorf("scene: %w", err)
	}
	if a.scene, err = modelir.BuildSceneArchive("scene", sc.Bands, modelir.ArchiveOptions{}); err != nil {
		return nil, fmt.Errorf("scene archive: %w", err)
	}
	if a.weather, err = modelir.GenerateWeather(modelir.WeatherConfig{Seed: seed + 2, Regions: w.regions, Days: 365}); err != nil {
		return nil, fmt.Errorf("weather: %w", err)
	}
	if a.wells, _, err = modelir.GenerateWells(modelir.WellConfig{Seed: seed + 3, Wells: w.wells}); err != nil {
		return nil, fmt.Errorf("wells: %w", err)
	}
	return a, nil
}

// engine registers the archives on a new engine, under modelird's names.
func (a *archives) engine(opt modelir.EngineOptions) (*modelir.Engine, error) {
	e := modelir.NewEngineWithOptions(opt)
	for _, err := range []error{
		e.AddTuples("tuples", a.pts),
		e.AddScene("scene", a.scene),
		e.AddSeries("weather", a.weather),
		e.AddWells("basin", a.wells),
	} {
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// checkExact compares an answer on a dataset nothing appends to.
func checkExact(got, want []answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Score != w.Score || !slices.Equal(g.Strata, w.Strata) {
			return fmt.Errorf("rank %d: got (id %d, score %v, strata %v), want (id %d, score %v, strata %v)",
				i, g.ID, g.Score, g.Strata, w.ID, w.Score, w.Strata)
		}
	}
	return nil
}

// checkGrowing checks an answer on a dataset that grew by appended rows
// (IDs >= base) against the reference answer over the base rows alone.
// Whatever was appended when the query ran, the base rows in the answer
// must be exactly the leading base rows of the reference, in order, and
// no appended row may rank below a base row the answer left out. Ties
// rank the lower ID first, and every appended ID is above every base ID.
func checkGrowing(got, want []answer, base int64, k int) error {
	if len(got) < len(want) || len(got) > k {
		return fmt.Errorf("%d items, want between %d and %d", len(got), len(want), k)
	}
	next := 0
	for i, g := range got {
		if i > 0 && g.Score > got[i-1].Score {
			return fmt.Errorf("rank %d: score %v above rank %d's %v", i, g.Score, i-1, got[i-1].Score)
		}
		if g.ID >= base {
			if next < len(want) && want[next].Score >= g.Score {
				return fmt.Errorf("rank %d: appended id %d (score %v) outranks base id %d (score %v)",
					i, g.ID, g.Score, want[next].ID, want[next].Score)
			}
			continue
		}
		if next >= len(want) || g.ID != want[next].ID || g.Score != want[next].Score {
			return fmt.Errorf("rank %d: base item (id %d, score %v) is not the reference's next base item", i, g.ID, g.Score)
		}
		next++
	}
	return nil
}

// contentMap pins each appended tuple ID the daemon returned to the row
// it holds, named by its position in the benchmark's own append order
// (the reference engine's ID minus base). The daemon may number rows in
// any arrival order, but one ID must always hold one row.
type contentMap map[int64]int64

// checkFinalTuples compares a final answer on the grown tuple dataset
// with the reference that appended every acked row, keyed on row
// content and score: scores must match rank for rank, base rows by ID,
// and appended rows by the row the reference holds at that rank.
func checkFinalTuples(got, want []answer, base int64, seen contentMap) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Score != w.Score {
			return fmt.Errorf("rank %d: score %v, want %v", i, g.Score, w.Score)
		}
		if (g.ID < base) != (w.ID < base) {
			return fmt.Errorf("rank %d: id %d and reference id %d disagree on base vs appended", i, g.ID, w.ID)
		}
		if g.ID < base {
			if g.ID != w.ID {
				return fmt.Errorf("rank %d: base id %d, want %d", i, g.ID, w.ID)
			}
			continue
		}
		row := w.ID - base
		if prev, ok := seen[g.ID]; ok && prev != row {
			return fmt.Errorf("rank %d: appended id %d holds appended row %d here and row %d elsewhere", i, g.ID, row, prev)
		}
		seen[g.ID] = row
	}
	return nil
}

// finalOps returns the closing queries on the grown datasets: linear
// queries along positive and negative directions, and FSM and geology
// queries that rank the appended regions and wells.
func finalOps(w *workload, seed int64) []op {
	rng := rand.New(rand.NewSource(seed + 4_000_037))
	var out []op
	if w.appended("tuples") {
		for i := 0; i < 8; i++ {
			sign := 1.0
			if i%2 == 1 {
				sign = -1
			}
			c := make([]float64, len(tupleAttrs))
			for j := range c {
				c[j] = sign * (0.05 + rng.Float64())
			}
			out = append(out, op{Kind: opLinear, Coeffs: c, K: 200})
		}
	}
	if w.appended("weather") {
		out = append(out, op{Kind: opFSM, K: 200}, op{Kind: opFSM, Prefilter: true, K: 200},
			op{Kind: opFSMDistance, Horizon: 4, K: 200})
	}
	if w.appended("basin") {
		for i := 0; i < 4; i++ {
			o := freshQuery(w, rng, opGeology)
			o.K = 100
			out = append(out, o)
		}
	}
	return out
}
