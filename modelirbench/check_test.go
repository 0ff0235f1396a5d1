package main

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"modelir"
)

// small is a workload sized for tests.
var small = &workload{name: "small", tuples: 3000, scene: 64, regions: 40, wells: 30,
	mix: [numOpKinds]float64{opLinear: 1, opScene: 1, opAppendTuples: 1}}

func smallRef(t *testing.T) (*archives, *modelir.Engine) {
	t.Helper()
	a, err := genArchives(small, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := a.engine(modelir.EngineOptions{Shards: engineShards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return a, e
}

func runRef(t *testing.T, e *modelir.Engine, o op) []answer {
	t.Helper()
	req, err := o.request()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return answersOf(res)
}

func clone(xs []answer) []answer { return append([]answer(nil), xs...) }

func TestCheckExactCatchesShiftedIDAndWrongScore(t *testing.T) {
	_, ref := smallRef(t)
	o := freshQuery(small, rand.New(rand.NewSource(1)), opScene)
	o.K = 10
	want := runRef(t, ref, o)
	if err := checkExact(clone(want), want); err != nil {
		t.Fatalf("the reference's own answer fails: %v", err)
	}
	shifted := clone(want)
	shifted[3].ID++
	if err := checkExact(shifted, want); err == nil {
		t.Error("a shifted ID on a dataset nothing appends to passed")
	}
	wrong := clone(want)
	wrong[5].Score += 1e-9
	if err := checkExact(wrong, want); err == nil {
		t.Error("a planted wrong score passed")
	}
}

// grownPair returns a reference that appended batches in order and an
// engine that appended them in reverse, as a daemon may under
// concurrent writers, leaving out the row at missing (-1 for none).
func grownPair(t *testing.T, a *archives, batches [][][]float64, missing int) (ref, daemon *modelir.Engine) {
	t.Helper()
	ref, daemon = modelir.NewEngine(), modelir.NewEngine()
	t.Cleanup(func() { ref.Close(); daemon.Close() })
	for _, e := range []*modelir.Engine{ref, daemon} {
		if err := e.AddTuples("tuples", a.pts); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches {
		if err := ref.AppendTuples("tuples", b); err != nil {
			t.Fatal(err)
		}
	}
	row := 0
	for i := len(batches) - 1; i >= 0; i-- {
		var kept [][]float64
		for _, r := range batches[i] {
			if row != missing {
				kept = append(kept, r)
			}
			row++
		}
		if len(kept) > 0 {
			if err := daemon.AppendTuples("tuples", kept); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ref, daemon
}

// hotBatches returns appended rows that outrank every base row.
func hotBatches() [][][]float64 {
	rng := rand.New(rand.NewSource(4))
	var out [][][]float64
	for b := 0; b < 5; b++ {
		rows := tupleRows(rng, 4)
		for _, r := range rows {
			for j := range r {
				r[j] += 10
			}
		}
		out = append(out, rows)
	}
	return out
}

func TestFinalCheckKeysAppendedRowsOnContent(t *testing.T) {
	a, _ := smallRef(t)
	ref, daemon := grownPair(t, a, hotBatches(), -1)
	base := int64(len(a.pts))
	seen := contentMap{}
	for _, o := range finalOps(small, 1) {
		got, want := runRef(t, daemon, o), runRef(t, ref, o)
		if err := checkFinalTuples(got, want, base, seen); err != nil {
			t.Fatalf("rows appended in another order fail: %v", err)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no appended row reached the final answers")
	}
}

func TestFinalCheckCatchesMissingAppendedRow(t *testing.T) {
	a, _ := smallRef(t)
	ref, daemon := grownPair(t, a, hotBatches(), 7)
	base := int64(len(a.pts))
	seen := contentMap{}
	caught := false
	for _, o := range finalOps(small, 1) {
		if err := checkFinalTuples(runRef(t, daemon, o), runRef(t, ref, o), base, seen); err != nil {
			caught = true
		}
	}
	if !caught {
		t.Error("a missing appended row passed the final check")
	}
}

func TestCheckGrowingCatchesWrongAnswers(t *testing.T) {
	a, baseRef := smallRef(t)
	_, daemon := grownPair(t, a, hotBatches()[:2], -1)
	base := int64(len(a.pts))
	o := op{Kind: opLinear, Coeffs: []float64{1, 0.5, 0.25}, K: 20}
	got, want := runRef(t, daemon, o), runRef(t, baseRef, o)
	if err := checkGrowing(got, want, base, o.K); err != nil {
		t.Fatalf("a correct answer over a grown dataset fails: %v", err)
	}
	for name, plant := range map[string]func([]answer){
		"wrong score":       func(xs []answer) { xs[len(xs)-1].Score -= 1e-6 },
		"shifted base ID":   func(xs []answer) { xs[len(xs)-1].ID++ },
		"dropped base row":  func(xs []answer) { xs[len(xs)-1] = answer{ID: base + 100, Score: xs[len(xs)-1].Score - 1} },
		"out of rank order": func(xs []answer) { xs[0], xs[1] = xs[1], xs[0] },
		"appended row too low": func(xs []answer) {
			xs[len(xs)-1] = answer{ID: base + 99, Score: xs[len(xs)-1].Score - 1e-3}
		},
	} {
		bad := clone(got)
		plant(bad)
		if err := checkGrowing(bad, want, base, o.K); err == nil {
			t.Errorf("%s passed", name)
		} else if !strings.Contains(err.Error(), "rank") {
			t.Errorf("%s: error %q does not name the rank", name, err)
		}
	}
}
