package core

import (
	"context"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/fsm"
	"modelir/internal/sproc"
	"modelir/internal/synth"
)

// The columnar-feature-plane pins: the flat event/strata/feature
// storage built at ingest must reproduce the row-shaped evaluation it
// replaced value for value, and the charge-before-scoring budget
// discipline must truncate scans at exactly the hand-computable
// candidate boundaries.

// TestSeriesShardEventPlaneMatchesClassify: the ingest-time event
// plane must equal per-query classification for every region, and so
// must the fire-ants score computed over it.
func TestSeriesShardEventPlaneMatchesClassify(t *testing.T) {
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 71, Regions: 37, Days: 120, MeanTempC: 16})
	if err != nil {
		t.Fatal(err)
	}
	machine := fsm.FireAnts()
	ss := newSeriesSet(arch, 4)
	seen := 0
	for _, sh := range ss.shards {
		for i, reg := range sh.regions {
			want := fsm.ClassifySeries(reg.Days)
			got := sh.eventsOf(i)
			if len(got) != len(want) {
				t.Fatalf("region %d: %d events, want %d", reg.Region, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("region %d day %d: event %d, want %d", reg.Region, j, got[j], want[j])
				}
			}
			gotScore, err := fsm.FlyScore(machine, got)
			if err != nil {
				t.Fatal(err)
			}
			if wantScore, _ := fsm.FlyScore(machine, want); gotScore != wantScore {
				t.Fatalf("region %d: event-plane FlyScore %v, per-query %v", reg.Region, gotScore, wantScore)
			}
			seen++
		}
	}
	if seen != 37 {
		t.Fatalf("event plane covers %d regions, want 37", seen)
	}
}

// TestWellShardColumnsMatchStrata: the SoA strata planes must hold
// every stratum field verbatim.
func TestWellShardColumnsMatchStrata(t *testing.T) {
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 81, Wells: 23})
	if err != nil {
		t.Fatal(err)
	}
	ws := newWellSet(wells, 3)
	seen := 0
	for _, sh := range ws.shards {
		for i, w := range sh.wells {
			if sh.strataLen(i) != len(w.Strata) {
				t.Fatalf("well %d: %d strata, want %d", w.Well, sh.strataLen(i), len(w.Strata))
			}
			for j, st := range w.Strata {
				o := sh.off[i] + j
				if sh.lith[o] != st.Lith || sh.topFt[o] != st.TopFt ||
					sh.thickFt[o] != st.ThickFt || sh.gamma[o] != st.GammaAPI {
					t.Fatalf("well %d stratum %d: columnar (%v,%v,%v,%v) vs row (%v,%v,%v,%v)",
						w.Well, j, sh.lith[o], sh.topFt[o], sh.thickFt[o], sh.gamma[o],
						st.Lith, st.TopFt, st.ThickFt, st.GammaAPI)
				}
			}
			seen++
		}
	}
	if seen != 23 {
		t.Fatalf("columns cover %d wells, want 23", seen)
	}
}

// TestGeoScannerMatchesRowQuery: the columnar grade closures must be
// bit-identical to geologySprocQuery's row-based grades on every
// (slot, item) and (slot, prev, cur) combination.
func TestGeoScannerMatchesRowQuery(t *testing.T) {
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 82, Wells: 12})
	if err != nil {
		t.Fatal(err)
	}
	ws := newWellSet(wells, 2)
	q := GeologyQuery{
		Sequence:     []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt:     10,
		MinGamma:     45,
		GammaRampAPI: 5,
	}
	for _, sh := range ws.shards {
		g := newGeoShardScanner(sh, q)
		for i, w := range sh.wells {
			n := g.setWell(i)
			ref := geologySprocQuery(w, q)
			for m := 0; m < len(q.Sequence); m++ {
				for item := 0; item < n; item++ {
					if got, want := g.sq.Unary(m, item), ref.Unary(m, item); got != want {
						t.Fatalf("well %d unary(%d,%d): %v vs %v", w.Well, m, item, got, want)
					}
				}
			}
			for m := 1; m < len(q.Sequence); m++ {
				for prev := 0; prev < n; prev++ {
					for cur := 0; cur < n; cur++ {
						if got, want := g.sq.Pair(m, prev, cur), ref.Pair(m, prev, cur); got != want {
							t.Fatalf("well %d pair(%d,%d,%d): %v vs %v", w.Well, m, prev, cur, got, want)
						}
					}
				}
			}
		}
	}
}

// TestGeologyMethodsAgreeOnColumnarStore: all three evaluators must
// return identical results through the engine — the DP path now runs
// the scratch-backed top-1 DP, so this pins it against brute force.
func TestGeologyMethodsAgreeOnColumnarStore(t *testing.T) {
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 83, Wells: 40})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 3, CacheEntries: -1})
	if err := e.AddWells("basin", wells); err != nil {
		t.Fatal(err)
	}
	base := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone},
		MaxGapFt: 12, MinGamma: 45, GammaRampAPI: 3,
	}
	var ref []WellMatch
	for mi, method := range []GeologyMethod{GeoBruteForce, GeoDP, GeoPruned} {
		q := base
		q.Method = method
		res, err := e.Run(context.Background(), Request{Dataset: "basin", Query: q, K: 8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := WellMatches(res.Items)
		if err != nil {
			t.Fatal(err)
		}
		if mi == 0 {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("method %d: %d matches, want %d", method, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Well != ref[i].Well || got[i].Score != ref[i].Score {
				t.Fatalf("method %d pos %d: %+v vs %+v", method, i, got[i], ref[i])
			}
			for j := range ref[i].Strata {
				if got[i].Strata[j] != ref[i].Strata[j] {
					t.Fatalf("method %d pos %d strata: %v vs %v", method, i, got[i].Strata, ref[i].Strata)
				}
			}
		}
	}
}

// TestKnowledgeFeatureMatrixMatchesArchive: the ingest-time feature
// matrix must hold exactly the per-tile stats the archive reports.
func TestKnowledgeFeatureMatrixMatchesArchive(t *testing.T) {
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 9, W: 32, H: 32})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 8, PyramidLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	ss := newSceneSet(arch, 2)
	if len(ss.featCols) != arch.NumBands()*4 {
		t.Fatalf("%d feature columns for %d bands", len(ss.featCols), arch.NumBands())
	}
	for ti := range arch.Tiles {
		row := ss.featRow(ti)
		for b := 0; b < arch.NumBands(); b++ {
			feat, err := arch.Feature(b, ti)
			if err != nil {
				t.Fatal(err)
			}
			if row[b*4] != feat.Stats.Mean || row[b*4+1] != feat.Stats.Std ||
				row[b*4+2] != feat.Stats.Min || row[b*4+3] != feat.Stats.Max {
				t.Fatalf("tile %d band %d: matrix row %v vs stats %+v", ti, b, row[b*4:b*4+4], feat.Stats)
			}
		}
	}
}

// TestScanBudgetBoundariesExact is the charge-before-scoring pin
// (hand-built archives, Workers:1): for every budget from zero through
// the archive's total work, the scan must stop exactly at the first
// candidate whose cumulative charge exceeds the budget — Examined,
// Evaluations and Truncated all pinned per boundary.
func TestScanBudgetBoundariesExact(t *testing.T) {
	// FSM family: regions cost 5, 6, 4, 7 days (no prefilter).
	e := NewEngineWith(Options{Shards: 1})
	if err := e.AddSeries("w", fsmStatsArchive()); err != nil {
		t.Fatal(err)
	}
	costs := []int{5, 6, 4, 7}
	total := 0
	for _, c := range costs {
		total += c
	}
	for budget := 1; budget <= total+3; budget++ {
		// A candidate is scanned while the meter is not yet exhausted
		// (used <= budget), and its whole cost is charged before its
		// machine runs; the next gate stops the scan.
		wantExamined, used := 0, 0
		for _, c := range costs {
			if used > budget {
				break
			}
			used += c
			wantExamined++
		}
		res, err := e.Run(context.Background(), Request{
			Dataset: "w",
			Query:   FSMQuery{Machine: fsm.FireAnts()},
			K:       4, Workers: 1, Budget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Examined != wantExamined || res.Stats.Evaluations != used {
			t.Fatalf("budget %d: examined %d evals %d, want %d/%d",
				budget, res.Stats.Examined, res.Stats.Evaluations, wantExamined, used)
		}
		if wantTrunc := used > budget; res.Stats.Truncated != wantTrunc {
			t.Fatalf("budget %d: truncated %v, want %v", budget, res.Stats.Truncated, wantTrunc)
		}
	}

	// Knowledge family: every tile costs Rules.Len() — uniform
	// boundaries.
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 9, W: 16, H: 16})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 8, PyramidLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddScene("s", arch); err != nil {
		t.Fatal(err)
	}
	rules := HPSTileRules()
	cost, tiles := rules.Len(), 4
	for budget := 1; budget <= cost*tiles+2; budget++ {
		wantExamined, used := 0, 0
		for ti := 0; ti < tiles; ti++ {
			if used > budget {
				break
			}
			used += cost
			wantExamined++
		}
		res, err := e.Run(context.Background(), Request{
			Dataset: "s", Query: KnowledgeQuery{Rules: rules},
			K: 4, Workers: 1, Budget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Examined != wantExamined || res.Stats.Evaluations != used {
			t.Fatalf("knowledge budget %d: examined %d evals %d, want %d/%d",
				budget, res.Stats.Examined, res.Stats.Evaluations, wantExamined, used)
		}
		if wantTrunc := used > budget; res.Stats.Truncated != wantTrunc {
			t.Fatalf("knowledge budget %d: truncated %v, want %v", budget, res.Stats.Truncated, wantTrunc)
		}
	}
}

// TestGeologyDPScratchStatsMatchDPCtx: the engine's scratch-backed DP
// must report exactly the stats the plain DPCtx reports (the
// accounting contract TestStatsGeologyExact pins for brute force).
func TestGeologyDPScratchStatsMatchDPCtx(t *testing.T) {
	e := NewEngineWith(Options{Shards: 1})
	wells := geoStatsWells()
	if err := e.AddWells("g", wells); err != nil {
		t.Fatal(err)
	}
	gq := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone},
		MaxGapFt: 10, MinGamma: 45, Method: GeoDP,
	}
	wantEvals := 0
	for _, w := range wells {
		_, wst, err := sproc.DPCtx(context.Background(), len(w.Strata), geologySprocQuery(w, gq), 1)
		if err != nil {
			t.Fatal(err)
		}
		wantEvals += wst.UnaryEvals + wst.PairEvals
	}
	res, err := e.Run(context.Background(), Request{Dataset: "g", Query: gq, K: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluations != wantEvals || res.Stats.Examined != len(wells) {
		t.Fatalf("stats %+v, want evals %d examined %d", res.Stats, wantEvals, len(wells))
	}
}
