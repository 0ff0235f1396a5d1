// Live-ingest pins: base+delta equivalence across all query families
// and shard counts, appender coalescing, reserve/commit registration,
// snapshot consistency under concurrent appends, and per-dataset cache
// invalidation under -race traffic.

package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/segment"
	"modelir/internal/synth"
)

// TestAppendTuplesAtExplicitBase pins the cluster-ingest primitive: a
// delta appended at an explicit global base beyond the watermark scores
// with IDs at that base (the row space may hold holes), an overlapping
// base is refused, and the pinned set survives compaction untouched —
// compacting would reassign the IDs the base encodes.
func TestAppendTuplesAtExplicitBase(t *testing.T) {
	pts, err := synth.GaussianTuples(9, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := synth.GaussianTuples(10, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 2})
	if err := e.AddTuples("g", pts); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendTuplesAt("g", 20, tail); err != nil {
		t.Fatal(err)
	}

	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Dataset: "g", Query: LinearQuery{Model: lm}, K: 50}
	res, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 15 {
		t.Fatalf("items = %d, want 15 (10 base + 5 delta)", len(res.Items))
	}
	for _, it := range res.Items {
		if !(it.ID < 10 || (it.ID >= 20 && it.ID < 25)) {
			t.Fatalf("item ID %d outside [0,10) ∪ [20,25)", it.ID)
		}
	}

	// Bases at or below existing rows would collide with assigned IDs.
	if err := e.AppendTuplesAt("g", 15, tail); err == nil {
		t.Fatal("overlapping base accepted")
	}
	if err := e.AppendTuplesAt("g", -1, tail); err == nil {
		t.Fatal("negative base accepted")
	}

	// The explicit base pinned the set: compaction must leave the delta
	// (and every ID) exactly where it is.
	e.Compact()
	for _, ds := range e.Datasets() {
		if ds.Name == "g" && ds.Deltas != 1 {
			t.Fatalf("deltas after Compact = %d, want 1 (pinned set must not compact)", ds.Deltas)
		}
	}
	again, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Items {
		if again.Items[i] != res.Items[i] {
			t.Fatalf("answers changed across Compact at pos %d", i)
		}
	}
}

// appendArchivesInChunks registers a prefix of every appendable
// archive and feeds the remainder through Append* in several chunks,
// leaving the engine with live delta segments. Scenes are registered
// whole (not appendable). The 4/5 base keeps delta volume below both
// compaction triggers so the deltas deterministically survive until
// the equivalence queries run.
func appendArchivesInChunks(t *testing.T, shards int, a testArchives) *Engine {
	t.Helper()
	e := NewEngineWith(Options{Shards: shards})
	basePts, baseRegions, baseWells := len(a.pts)*4/5, len(a.arch)*4/5, len(a.wells)*4/5
	if err := e.AddTuples("gauss", a.pts[:basePts]); err != nil {
		t.Fatal(err)
	}
	if err := e.AddScene("hps", a.scene); err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("weather", a.arch[:baseRegions]); err != nil {
		t.Fatal(err)
	}
	if err := e.AddWells("basin", a.wells[:baseWells]); err != nil {
		t.Fatal(err)
	}
	chunked := func(n, base int, appendChunk func(lo, hi int) error) {
		t.Helper()
		rest := n - base
		for c := 0; c < 3; c++ {
			lo := base + rest*c/3
			hi := base + rest*(c+1)/3
			if lo == hi {
				continue
			}
			if err := appendChunk(lo, hi); err != nil {
				t.Fatal(err)
			}
		}
	}
	chunked(len(a.pts), basePts, func(lo, hi int) error { return e.AppendTuples("gauss", a.pts[lo:hi]) })
	chunked(len(a.arch), baseRegions, func(lo, hi int) error { return e.AppendSeries("weather", a.arch[lo:hi]) })
	chunked(len(a.wells), baseWells, func(lo, hi int) error { return e.AppendWells("basin", a.wells[lo:hi]) })
	return e
}

// TestDeltaEquivalenceAllFamilies pins the tentpole invariant: an
// engine that grew its datasets through appends (base + live delta
// segments) answers every query family bit-identically to an engine
// that registered the full archives up front — for shard counts 1, 4
// and 7, both before and after compaction.
func TestDeltaEquivalenceAllFamilies(t *testing.T) {
	a := buildArchives(t)
	for _, shards := range []int{1, 4, 7} {
		full := engineWithArchives(t, shards, a)
		want := runSixFamilies(t, full, a.pm)

		grown := appendArchivesInChunks(t, shards, a)
		anyDeltas := false
		for _, ds := range grown.Datasets() {
			if ds.Deltas > 0 {
				anyDeltas = true
			}
		}
		if !anyDeltas {
			t.Fatalf("shards=%d: background compaction consumed every delta before the query ran", shards)
		}
		compareSix(t, fmt.Sprintf("shards=%d deltas", shards), runSixFamilies(t, grown, a.pm), want)

		// Compaction folds the deltas back into base shards without
		// changing a single answer.
		grown.Compact()
		for _, ds := range grown.Datasets() {
			if ds.Deltas != 0 {
				t.Fatalf("shards=%d: %s/%s still holds %d deltas after Compact", shards, ds.Kind, ds.Name, ds.Deltas)
			}
		}
		compareSix(t, fmt.Sprintf("shards=%d compacted", shards), runSixFamilies(t, grown, a.pm), want)
		if err := grown.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendValidation pins the append error surface: unknown datasets
// and empty payloads are rejected without side effects.
func TestAppendValidation(t *testing.T) {
	e := NewEngine()
	if err := e.AppendTuples("nope", [][]float64{{1}}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("append to unknown dataset: %v", err)
	}
	if err := e.AppendSeries("nope", []synth.RegionSeries{{}}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("append series to unknown dataset: %v", err)
	}
	if err := e.AppendWells("nope", []synth.WellLog{{}}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("append wells to unknown dataset: %v", err)
	}
	if err := e.AddTuples("t", [][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendTuples("t", nil); err == nil {
		t.Fatal("empty append accepted")
	}
	if ds := e.Datasets(); ds[0].Gen != 1 {
		t.Fatalf("failed appends bumped the generation to %d", ds[0].Gen)
	}
}

// TestAppenderCoalesces pins the batching appender's size window:
// twenty concurrent five-row appends with a size threshold of exactly
// one hundred rows coalesce into ONE delta segment and ONE generation
// bump — deterministically, because the hundredth row triggers the
// only flush (the time window is parked an hour out).
func TestAppenderCoalesces(t *testing.T) {
	base, err := synth.GaussianTuples(3, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 100 delta rows on a 400-row base stay under both compaction
	// triggers, so the one delta segment deterministically survives.
	e := NewEngine()
	if err := e.AddTuples("gauss", base); err != nil {
		t.Fatal(err)
	}
	ap := NewAppender(e, AppenderOptions{MaxRows: 100, MaxWait: time.Hour})
	defer ap.Close()

	var wg sync.WaitGroup
	errs := make([]error, 20)
	for g := 0; g < 20; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows := make([][]float64, 5)
			for i := range rows {
				rows[i] = []float64{float64(g), float64(i), 0}
			}
			errs[g] = ap.AppendTuples(context.Background(), "gauss", rows)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("appender %d: %v", g, err)
		}
	}
	ds := e.Datasets()[0]
	if ds.Rows != len(base)+100 {
		t.Fatalf("rows = %d, want %d", ds.Rows, len(base)+100)
	}
	if ds.Gen != 2 {
		t.Fatalf("gen = %d, want 2 (one coalesced flush)", ds.Gen)
	}
	if ds.Deltas != 1 {
		t.Fatalf("deltas = %d, want 1", ds.Deltas)
	}
}

// TestAppenderConcurrentWritersEquivalence pins delta equivalence under
// the batching appender's real concurrency: 16-row tuple writers plus
// one series and one wells writer race knowledge queries, and the
// grown engine must answer all six families bit-identically to one
// that registered the same rows up front — with live deltas and again
// after Compact. Concurrent writers commit in scheduler order and tuple
// IDs are arrival-order row offsets, so the reference registers the
// tuples in the grown engine's committed order; the committed rows
// must be exactly the base plus every acked row, as a multiset.
func TestAppenderConcurrentWritersEquivalence(t *testing.T) {
	a := buildArchives(t)
	ctx := context.Background()
	const shards = 4
	// Cache off so the post-compaction check re-executes every query.
	grown := NewEngineWith(Options{Shards: shards, CacheEntries: -1})
	basePts, baseRegions, baseWells := len(a.pts)*4/5, len(a.arch)*4/5, len(a.wells)*4/5
	for _, err := range []error{
		grown.AddTuples("gauss", a.pts[:basePts]),
		grown.AddScene("hps", a.scene),
		grown.AddSeries("weather", a.arch[:baseRegions]),
		grown.AddWells("basin", a.wells[:baseWells]),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	const chunk, queriers, queries = 16, 4, 8
	ap := NewAppender(grown, AppenderOptions{})
	tail := a.pts[basePts:]
	var wg sync.WaitGroup
	// One slot per send: every tuple writer, the two tail writers, and
	// every query.
	errs := make(chan error, (len(tail)+chunk-1)/chunk+2+queriers*queries)
	for lo := 0; lo < len(tail); lo += chunk {
		rows := tail[lo:min(lo+chunk, len(tail))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- ap.AppendTuples(ctx, "gauss", rows)
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs <- ap.AppendSeries(ctx, "weather", a.arch[baseRegions:])
	}()
	go func() {
		defer wg.Done()
		errs <- ap.AppendWells(ctx, "basin", a.wells[baseWells:])
	}()
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				_, err := grown.Run(ctx, Request{Dataset: "hps", Query: KnowledgeQuery{Rules: HPSTileRules()}, K: 10})
				errs <- err
			}
		}()
	}
	wg.Wait()
	ap.Close()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	committed := committedTuples(t, grown, "gauss")
	rowKey := func(r []float64) string { return fmt.Sprint(r) }
	counts := make(map[string]int, len(a.pts))
	for _, r := range a.pts {
		counts[rowKey(r)]++
	}
	for _, r := range committed {
		counts[rowKey(r)]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("committed rows differ from base+acked rows: row %s count off by %d", k, c)
		}
	}

	ref := NewEngineWith(Options{Shards: shards})
	for _, err := range []error{
		ref.AddTuples("gauss", committed),
		ref.AddScene("hps", a.scene),
		ref.AddSeries("weather", a.arch),
		ref.AddWells("basin", a.wells),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := runSixFamilies(t, ref, a.pm)
	compareSix(t, "live deltas", runSixFamilies(t, grown, a.pm), want)
	grown.Compact()
	compareSix(t, "compacted", runSixFamilies(t, grown, a.pm), want)
	if err := grown.Close(); err != nil {
		t.Fatal(err)
	}
}

// committedTuples returns a tuple dataset's rows in global-ID order:
// base rows, then every delta segment at its committed offset.
func committedTuples(t *testing.T, e *Engine, name string) [][]float64 {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	ts := e.tuples[name]
	rows := make([][]float64, ts.rows)
	copy(rows, ts.points)
	for _, d := range ts.deltas {
		copy(rows[d.offset:], d.points)
	}
	for id, r := range rows {
		if r == nil {
			t.Fatalf("%s: no committed row at ID %d", name, id)
		}
	}
	return rows
}

// TestAppenderErrorsAndClose pins the per-caller error contract: a
// flush against an unknown dataset fails every waiter in that window
// with the engine's error, and appends after Close are rejected.
func TestAppenderErrorsAndClose(t *testing.T) {
	e := NewEngine()
	ap := NewAppender(e, AppenderOptions{MaxRows: 4, MaxWait: time.Hour})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = ap.AppendTuples(context.Background(), "ghost", [][]float64{{1}, {2}})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, ErrUnknownDataset) {
			t.Fatalf("waiter %d: %v, want ErrUnknownDataset", g, err)
		}
	}
	ap.Close()
	if err := ap.AppendTuples(context.Background(), "ghost", [][]float64{{1}}); !errors.Is(err, ErrAppenderClosed) {
		t.Fatalf("append after Close: %v", err)
	}
	ap.Close() // idempotent
}

// TestAppenderContextCancel pins the waiting contract: a caller whose
// context dies while its window is still open stops waiting with the
// context's error, and the rows still flush.
func TestAppenderContextCancel(t *testing.T) {
	e := NewEngine()
	if err := e.AddTuples("gauss", [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	ap := NewAppender(e, AppenderOptions{MaxRows: 1 << 30, MaxWait: time.Hour})
	defer ap.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ap.AppendTuples(ctx, "gauss", [][]float64{{2}}) }()
	// Cancel only once the row is pending, so the wait (not the
	// enqueue) is what the cancellation interrupts.
	for {
		ap.mu.Lock()
		pending := len(ap.pend)
		ap.mu.Unlock()
		if pending > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}
	ap.Flush()
	if rows := e.Datasets()[0].Rows; rows != 2 {
		t.Fatalf("rows after flush = %d, want 2 (cancel abandons the wait, not the rows)", rows)
	}
}

// TestConcurrentDuplicateRegistration pins the reserve/commit
// registration path: many goroutines racing to register the same name
// produce exactly one success and ErrDuplicateDataset everywhere else
// — the expensive set build never runs under the engine lock, and no
// goroutine's build overwrites another's.
func TestConcurrentDuplicateRegistration(t *testing.T) {
	pts, err := synth.GaussianTuples(7, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 4})
	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = e.AddTuples("dup", pts)
		}(g)
	}
	wg.Wait()
	wins := 0
	for g, err := range errs {
		switch {
		case err == nil:
			wins++
		case !errors.Is(err, ErrDuplicateDataset):
			t.Fatalf("racer %d: %v, want ErrDuplicateDataset", g, err)
		}
	}
	if wins != 1 {
		t.Fatalf("%d racers won, want exactly 1", wins)
	}
	if ds := e.Datasets(); len(ds) != 1 || ds[0].Rows != len(pts) {
		t.Fatalf("registered state torn: %+v", ds)
	}
	if e.Epoch() != 1 {
		t.Fatalf("epoch = %d after 1 successful registration", e.Epoch())
	}
}

// TestSnapshotDuringIngest pins snapshot consistency under traffic:
// snapshots racing a stream of appends each capture a consistent pre-
// or post-append world — the restored row count always lands on an
// append boundary, and the restored engine answers bit-identically to
// a fresh engine built from exactly that prefix.
func TestSnapshotDuringIngest(t *testing.T) {
	pts, err := synth.GaussianTuples(31, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	const base, chunk, chunks = 2000, 100, 10
	e := NewEngineWith(Options{Shards: 4})
	if err := e.AddTuples("gauss", pts[:base]); err != nil {
		t.Fatal(err)
	}
	lm := testLinearModel(t)
	ctx := context.Background()

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for c := 0; c < chunks; c++ {
			lo := base + c*chunk
			if err := e.AppendTuples("gauss", pts[lo:lo+chunk]); err != nil {
				t.Errorf("append %d: %v", c, err)
				return
			}
		}
	}()

	snaps := 0
	for running := true; running; {
		select {
		case <-writerDone:
			running = false
		default:
		}
		dir, err := segment.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Snapshot(ctx, dir); err != nil {
			t.Fatal(err)
		}
		re, err := OpenSnapshot(dir, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rows := re.Datasets()[0].Rows
		if rows < base || rows > len(pts) || (rows-base)%chunk != 0 {
			t.Fatalf("snapshot %d captured a torn world: %d rows", snaps, rows)
		}
		ref := NewEngineWith(Options{Shards: 4})
		if err := ref.AddTuples("gauss", pts[:rows]); err != nil {
			t.Fatal(err)
		}
		req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10}
		got, err := re.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		itemsEqual(t, fmt.Sprintf("snapshot %d (%d rows)", snaps, rows), got.Items, want.Items)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		snaps++
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPerDatasetInvalidationUnderTraffic is the -race soak for the
// cache-invalidation bug this PR fixes: a hammer of appends to one
// dataset must not evict another dataset's cache entries, and a query
// issued after an append returns must see the appended rows — never a
// stale cached answer.
func TestPerDatasetInvalidationUnderTraffic(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	defer e.Close()
	lm := testLinearModel(t)
	ctx := context.Background()
	weatherReq := Request{Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 6}, K: 5}

	// Warm weather's entry, then hammer gauss while weather keeps
	// serving hits.
	if _, err := e.Run(ctx, weatherReq); err != nil {
		t.Fatal(err)
	}
	const writers, iters = 4, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				row := []float64{float64(w), float64(i), 1}
				if err := e.AppendTuples("gauss", [][]float64{row}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := e.Run(ctx, weatherReq)
			if err != nil {
				t.Errorf("weather reader: %v", err)
				return
			}
			if !res.Stats.Cache.Hit {
				t.Error("append traffic on gauss evicted weather's cache entry")
				return
			}
		}
	}()
	// Foreground reader: every gauss query must reflect at least the
	// appends that completed before it started (generations monotone).
	var lastGen uint64
	for i := 0; i < 50; i++ {
		gen := e.Datasets()[0].Gen // sorted by name: basin first — find gauss
		for _, ds := range e.Datasets() {
			if ds.Name == "gauss" {
				gen = ds.Gen
			}
		}
		if gen < lastGen {
			t.Fatalf("gauss generation went backwards: %d -> %d", lastGen, gen)
		}
		lastGen = gen
		if _, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Plant a row that dominates every score and require the very next
	// query to surface it: the freshness half of the invalidation
	// contract. testLinearModel's coefficients are {1, -0.5, 2}.
	if _, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 1}); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, ds := range e.Datasets() {
		if ds.Name == "gauss" {
			rows = ds.Rows
		}
	}
	planted := []float64{1e9, 0, 1e9}
	if err := e.AppendTuples("gauss", [][]float64{planted}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cache.Hit {
		t.Fatal("stale cached answer served after append returned")
	}
	if len(res.Items) != 1 || res.Items[0].ID != int64(rows) {
		t.Fatalf("planted max row (id %d) missing: got %+v", rows, res.Items)
	}
}

// TestCompactionPreservesCache pins that compaction is invisible to
// the cache: it changes layout, not content, so it leaves the
// generation alone and warm entries keep serving.
func TestCompactionPreservesCache(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	defer e.Close()
	lm := testLinearModel(t)
	ctx := context.Background()
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10}

	if err := e.AppendTuples("gauss", a.pts[:3]); err != nil {
		t.Fatal(err)
	}
	cold, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	e.Compact()
	warm, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Cache.Hit {
		t.Fatal("compaction evicted a still-valid entry")
	}
	itemsEqual(t, "post-compaction hit", warm.Items, cold.Items)
	for _, ds := range e.Datasets() {
		if ds.Name == "gauss" && ds.Deltas != 0 {
			t.Fatalf("gauss still holds %d deltas after Compact", ds.Deltas)
		}
	}
}

// TestBackgroundCompaction pins the automatic trigger: enough small
// appends eventually fold into base shards without any explicit
// Compact call, and answers are unchanged throughout.
func TestBackgroundCompaction(t *testing.T) {
	pts, err := synth.GaussianTuples(17, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 4})
	if err := e.AddTuples("gauss", pts[:100]); err != nil {
		t.Fatal(err)
	}
	for lo := 100; lo < len(pts); lo += 50 {
		if err := e.AppendTuples("gauss", pts[lo:lo+50]); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for in-flight compactions; after it, at least one
	// trigger must have fired (6 appends on a 100-row base crosses both
	// the segment-count and the row-fraction thresholds).
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	ds := e.Datasets()[0]
	if ds.Rows != len(pts) {
		t.Fatalf("rows = %d, want %d", ds.Rows, len(pts))
	}
	if ds.Deltas >= 6 {
		t.Fatalf("background compaction never fired: %d deltas after 6 appends", ds.Deltas)
	}
}
