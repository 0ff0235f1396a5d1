package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"modelir/internal/bayes"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/qcache"
)

// TestCacheHitMatchesMiss pins the acceptance criterion: a cache hit
// returns items, scores, payloads, and stats bit-identical (modulo
// Wall and the Cache sample) to the cold run that populated it, across
// all five query families and shard counts 1, 4 and 7.
func TestCacheHitMatchesMiss(t *testing.T) {
	a := buildArchives(t)
	lm := testLinearModel(t)
	ctx := context.Background()
	for _, shards := range []int{1, 4, 7} {
		e := engineWithArchives(t, shards, a)
		for i, req := range batchRequests(a, lm) {
			label := fmt.Sprintf("shards=%d req=%d (%T)", shards, i, req.Query)
			cold, err := e.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Stats.Cache.Hit {
				t.Fatalf("%s: first run reported a cache hit", label)
			}
			hit, err := e.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Stats.Cache.Hit {
				t.Fatalf("%s: repeat run missed the cache", label)
			}
			resultsEqual(t, label, hit, cold)

			// Cached memory must be unreachable from either result: a
			// caller scribbling over its items cannot poison later hits.
			if len(hit.Items) > 0 {
				hit.Items[0].Score = -99999
				again, err := e.Run(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				hit.Items[0] = again.Items[0]
				resultsEqual(t, label+" after scribble", again, cold)
			}
		}
	}
}

// TestCacheGenerationInvalidation is the deterministic stale-entry
// pin for per-dataset invalidation: an append to the queried dataset
// kills its cached entry unserved, while registrations and appends to
// OTHER datasets leave it alone.
func TestCacheGenerationInvalidation(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx := context.Background()
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}

	if _, err := e.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	epoch := e.Epoch()
	if epoch != 4 {
		t.Fatalf("epoch after 4 registrations = %d", epoch)
	}
	// Warm entry serves.
	warm, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Cache.Hit {
		t.Fatal("warm entry did not serve")
	}

	// A registration elsewhere bumps the engine epoch but NOT gauss's
	// generation: the entry must keep serving.
	if err := e.AddTuples("unrelated", [][]float64{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != epoch+1 {
		t.Fatalf("epoch not bumped: %d", e.Epoch())
	}
	after, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Stats.Cache.Hit {
		t.Fatal("unrelated registration evicted gauss's entry")
	}
	// An append to another dataset likewise leaves gauss alone.
	if err := e.AppendTuples("unrelated", [][]float64{{4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	after, err = e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Stats.Cache.Hit {
		t.Fatal("append to another dataset evicted gauss's entry")
	}

	// An append to gauss itself bumps its generation; the entry must
	// die unserved and the recompute must see the delta segment.
	row := make([]float64, len(a.pts[0]))
	if err := e.AppendTuples("gauss", [][]float64{row}); err != nil {
		t.Fatal(err)
	}
	stale, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Stats.Cache.Hit {
		t.Fatal("stale entry served after append to queried dataset")
	}
	if stale.Stats.Cache.Invalidations == 0 {
		t.Fatal("stale entry dropped without counting an invalidation")
	}
	if stale.Stats.Shards != 5 {
		t.Fatalf("post-append fan-out = %d segments, want 4 base + 1 delta", stale.Stats.Shards)
	}
	// And the recompute re-populates the cache under the new generation.
	again, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.Cache.Hit {
		t.Fatal("recomputed entry did not re-cache")
	}
	resultsEqual(t, "re-cache under new generation", again, stale)
}

// TestFingerprintSemantics pins which requests share a cache line and
// which never enter the cache at all.
func TestFingerprintSemantics(t *testing.T) {
	lm := testLinearModel(t)
	base := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}
	if err := validateRequest(&base); err != nil {
		t.Fatal(err)
	}
	baseKey, ok := fingerprintRequest(base)
	if !ok {
		t.Fatal("plain linear request not cacheable")
	}

	// Workers changes scheduling only — it must share the cache line.
	workers := base
	workers.Workers = 7
	if k, ok := fingerprintRequest(workers); !ok || k != baseKey {
		t.Fatal("Workers changed the fingerprint")
	}

	// Distinct semantics, distinct keys.
	distinct := []Request{
		{Dataset: "other", Query: LinearQuery{Model: lm}, K: 5},
		{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 6},
	}
	min := 0.0
	withMin := base
	withMin.MinScore = &min
	distinct = append(distinct, withMin)
	m2, err := modelWithCoeffs(t, []float64{1, -0.5, 2.001}, 3)
	if err != nil {
		t.Fatal(err)
	}
	distinct = append(distinct, Request{Dataset: "gauss", Query: LinearQuery{Model: m2}, K: 5})
	seen := map[string]int{string(baseKey[:]): -1}
	for i := range distinct {
		if err := validateRequest(&distinct[i]); err != nil {
			t.Fatal(err)
		}
		k, ok := fingerprintRequest(distinct[i])
		if !ok {
			t.Fatalf("variant %d not cacheable", i)
		}
		if j, dup := seen[string(k[:])]; dup {
			t.Fatalf("variants %d and %d collide", i, j)
		}
		seen[string(k[:])] = i
	}

	// Uncacheable shapes: scheduling-dependent or unfingerprintable.
	budget := base
	budget.Budget = 100
	if _, ok := fingerprintRequest(budget); ok {
		t.Fatal("budgeted request fingerprinted (truncation is scheduling-dependent)")
	}
	pre := Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts(), Prefilter: FireAntsPrefilter}, K: 5}
	if err := validateRequest(&pre); err != nil {
		t.Fatal(err)
	}
	if _, ok := fingerprintRequest(pre); ok {
		t.Fatal("prefiltered FSM request fingerprinted (func values have no content)")
	}
	custom := Request{Dataset: "hps", Query: KnowledgeQuery{Rules: customMembershipRules()}, K: 5}
	if err := validateRequest(&custom); err != nil {
		t.Fatal(err)
	}
	if _, ok := fingerprintRequest(custom); ok {
		t.Fatal("unknown membership fingerprinted")
	}

	// Method zero normalizes to GeoDP: both must share one cache line.
	g0 := Request{Dataset: "basin", Query: testGeoQuery(), K: 5}
	gq := testGeoQuery()
	gq.Method = GeoDP
	gDP := Request{Dataset: "basin", Query: gq, K: 5}
	if err := validateRequest(&g0); err != nil {
		t.Fatal(err)
	}
	if err := validateRequest(&gDP); err != nil {
		t.Fatal(err)
	}
	k0, ok0 := fingerprintRequest(g0)
	kDP, okDP := fingerprintRequest(gDP)
	if !ok0 || !okDP || k0 != kDP {
		t.Fatal("geology Method zero and GeoDP fingerprint apart")
	}

	// FSM machine and distance queries over the same machine must not
	// collide with each other.
	fq := Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 5}
	dq := Request{Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 0}, K: 5}
	if err := validateRequest(&fq); err != nil {
		t.Fatal(err)
	}
	if err := validateRequest(&dq); err != nil {
		t.Fatal(err)
	}
	fk, _ := fingerprintRequest(fq)
	dk, _ := fingerprintRequest(dq)
	if fk == dk {
		t.Fatal("FSM and FSM-distance queries collide")
	}
}

// TestCacheDisabled pins Options.CacheEntries < 0: no serving, no
// counters, results unchanged. Each repeat is a fresh 4-shard
// execution, so only its schedule-independent stats are pinned.
func TestCacheDisabled(t *testing.T) {
	const shards = 4
	a := buildArchives(t)
	e := engineWithArchivesOpts(t, Options{Shards: shards, CacheEntries: -1}, a)
	lm := testLinearModel(t)
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}
	ctx := context.Background()
	r1, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Cache.Hit || r2.Stats.Cache.Hit {
		t.Fatal("disabled cache served a hit")
	}
	if st := e.CacheStats(); st != (qcache.Stats{}) {
		t.Fatalf("disabled cache counted: %+v", st)
	}
	executionsEqual(t, "cacheless repeat", shards, r2, r1)
}

// TestCacheInvalidationStress is the race suite: concurrent Register +
// RunBatch + Run traffic with continuous epoch invalidation, run under
// -race in CI. Correctness pin: every served linear result equals the
// immutable dataset's true answer, no matter how registrations
// interleave.
func TestCacheInvalidationStress(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx := context.Background()

	want, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	machine := fsm.FireAnts()
	const writers, readers, iters = 2, 6, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("stress-%d-%d", w, i)
				if err := e.AddTuples(name, [][]float64{{float64(i), 1, 2}}); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			reqs := []Request{
				{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5},
				{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}, // duplicate: dedup under fire
				{Dataset: "weather", Query: FSMQuery{Machine: machine}, K: 5},
			}
			for i := 0; i < iters; i++ {
				if r%2 == 0 {
					batch, err := e.RunBatch(ctx, reqs)
					if err != nil {
						t.Errorf("reader %d batch: %v", r, err)
						return
					}
					for bi := 0; bi < 2; bi++ {
						if batch[bi].Err != nil {
							t.Errorf("reader %d slot %d: %v", r, bi, batch[bi].Err)
							return
						}
						for j, it := range batch[bi].Result.Items {
							if it != want.Items[j] {
								t.Errorf("reader %d slot %d item %d drifted: %+v vs %+v", r, bi, j, it, want.Items[j])
								return
							}
						}
					}
				} else {
					res, err := e.Run(ctx, reqs[0])
					if err != nil {
						t.Errorf("reader %d run: %v", r, err)
						return
					}
					for j, it := range res.Items {
						if it != want.Items[j] {
							t.Errorf("reader %d item %d drifted: %+v vs %+v", r, j, it, want.Items[j])
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if e.Epoch() != 4+writers*iters {
		t.Fatalf("epoch %d after %d registrations", e.Epoch(), 4+writers*iters)
	}
}

// TestAdmissionClampKeepsResults pins that an engine whose admission
// budget forces every request down to one worker still returns results
// identical to an unconstrained engine, and that heavy concurrent
// traffic through a tiny budget neither deadlocks nor leaks units.
func TestAdmissionClampKeepsResults(t *testing.T) {
	a := buildArchives(t)
	wide := engineWithArchivesOpts(t, Options{Shards: 4, CacheEntries: -1, MaxWorkers: -1}, a)
	tight := engineWithArchivesOpts(t, Options{Shards: 4, CacheEntries: -1, MaxWorkers: 1}, a)
	lm := testLinearModel(t)
	ctx := context.Background()
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 8, Workers: 4}
	want, err := wide.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	const concurrent = 8
	var wg sync.WaitGroup
	for g := 0; g < concurrent; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := tight.Run(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want.Items {
					if res.Items[j] != want.Items[j] {
						t.Errorf("clamped result drifted at %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// The budget must be fully returned: a full-width acquire succeeds.
	got, release, err := tight.admit(ctx, 1)
	if err != nil || got != 1 {
		t.Fatalf("post-traffic admit: %d, %v", got, err)
	}
	release()
}

// modelWithCoeffs builds a linear model for fingerprint variants.
func modelWithCoeffs(t *testing.T, coeffs []float64, intercept float64) (*linear.Model, error) {
	t.Helper()
	return linear.New([]string{"a", "b", "c"}, coeffs, intercept)
}

// customMembership is a Membership the bayes package cannot serialize,
// making any rule set that uses it uncacheable.
type customMembership struct{}

func (customMembership) Grade(float64) float64 { return 1 }

func customMembershipRules() *bayes.RuleSet {
	return bayes.NewRuleSet().Require("b4.mean", customMembership{})
}
