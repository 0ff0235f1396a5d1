package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// parseSpeedup reads "37.8x" -> 37.8.
func parseSpeedup(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q: %v", s, err)
	}
	return v
}

func parseInt(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("bad int cell %q: %v", s, err)
	}
	return v
}

// Every experiment must produce a non-empty, rectangular table.
func TestAllTablesWellFormed(t *testing.T) {
	tables, err := All(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 9 {
		t.Fatalf("got %d tables, want 9", len(tables))
	}
	for _, tbl := range tables {
		if tbl.ID == "" || tbl.Title == "" {
			t.Fatalf("table missing identity: %+v", tbl)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: no rows", tbl.ID)
		}
		for ri, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Fatalf("%s row %d: %d cells for %d columns", tbl.ID, ri, len(row), len(tbl.Columns))
			}
		}
	}
}

// E1 shape: Onion must beat the scan by far more for K=1 than K=100, and
// the R-tree must touch more points than Onion.
func TestE1Shape(t *testing.T) {
	tbl, err := E1(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: N, K, scan pts, onion pts, pts speedup, time speedup,
	// rtree pts, onion layers.
	var k1, k100 float64
	for _, row := range tbl.Rows {
		speedup := parseSpeedup(t, row[4])
		if speedup <= 1 {
			t.Fatalf("onion speedup %v <= 1 at N=%s K=%s", speedup, row[0], row[1])
		}
		onionPts := parseInt(t, row[3])
		rtreePts := parseInt(t, row[6])
		if row[1] == "1" && rtreePts < onionPts/4 {
			// The R-tree should not dramatically beat Onion anywhere;
			// at K=1 they may be comparable, deeper K favors Onion.
			t.Logf("note: rtree %d vs onion %d at %s", rtreePts, onionPts, row[0])
		}
		if row[1] == "1" {
			k1 = speedup
		}
		if row[1] == "100" {
			k100 = speedup
		}
	}
	if k1 <= k100 {
		t.Fatalf("top-1 speedup %v must exceed top-100 %v", k1, k100)
	}
}

// E2 shape: order-of-magnitude eval reduction with >= 95% agreement.
func TestE2Shape(t *testing.T) {
	tbl, err := E2(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if s := parseSpeedup(t, row[3]); s < 3 {
			t.Fatalf("eval speedup %v < 3", s)
		}
		agree, err := strconv.ParseFloat(strings.TrimSuffix(row[5], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if agree < 95 {
			t.Fatalf("agreement %v%% < 95%%", agree)
		}
	}
}

// E3 shape: speedup in (or near) the paper's 4-8x band with the target
// still found.
func TestE3Shape(t *testing.T) {
	tbl, err := E3(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if s := parseSpeedup(t, row[4]); s < 2 {
			t.Fatalf("GLCM speedup %v < 2", s)
		}
		if row[6] != "true" {
			t.Fatal("planted texture not found")
		}
	}
}

// E4 shape: every configuration agrees and pruned does no more pair work
// than DP.
func TestE4Shape(t *testing.T) {
	tbl, err := E4(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[7] != "true" {
			t.Fatalf("evaluators disagree at L=%s M=%s", row[0], row[1])
		}
		if parseInt(t, row[4]) > parseInt(t, row[3]) {
			t.Fatalf("pruned pair evals exceed DP at L=%s M=%s", row[0], row[1])
		}
	}
}

// E5 shape: combined speedup >= both single-axis speedups, and the
// dominant-coefficients model achieves higher pm than HPS.
func TestE5Shape(t *testing.T) {
	tbl, err := E5(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var pmHPS, pmDom float64
	for _, row := range tbl.Rows {
		pm := parseSpeedup(t, row[4])
		pd := parseSpeedup(t, row[5])
		combined := parseSpeedup(t, row[6])
		if combined+1e-9 < pm || combined+1e-9 < pd {
			t.Fatalf("combined %v below pm %v or pd %v", combined, pm, pd)
		}
		switch row[1] {
		case "hps":
			pmHPS = pm
		case "dominant":
			pmDom = pm
		}
	}
	if pmDom <= pmHPS {
		t.Fatalf("dominant-model pm %v must exceed hps pm %v", pmDom, pmHPS)
	}
}

// E6 shape: Pm non-decreasing, Pf non-increasing in T.
func TestE6Shape(t *testing.T) {
	tbl, err := E6(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var prevPm, prevPf float64
	prevPf = 2
	for i, row := range tbl.Rows {
		pm, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (pm < prevPm-1e-9 || pf > prevPf+1e-9) {
			t.Fatalf("monotonicity broken at row %d", i)
		}
		prevPm, prevPf = pm, pf
	}
}

// E7 shape: pruning preserves the result set and reduces scan work.
func TestE7Shape(t *testing.T) {
	tbl, err := E7(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[6] != "true" {
			t.Fatal("pruned top-10 diverged")
		}
		if parseInt(t, row[3]) > parseInt(t, row[2]) {
			t.Fatal("pruning increased scan work")
		}
	}
}

// E8 shape: all methods agree, full planted recall, pruned <= DP work.
func TestE8Shape(t *testing.T) {
	tbl, err := E8(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var dpEvals, prunedEvals int
	for _, row := range tbl.Rows {
		if row[5] != "true" {
			t.Fatalf("method %s diverged", row[1])
		}
		parts := strings.Split(row[4], "/")
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Fatalf("method %s planted recall %s not full", row[1], row[4])
		}
		switch row[1] {
		case "dp":
			dpEvals = parseInt(t, row[2])
		case "pruned":
			prunedEvals = parseInt(t, row[2])
		}
	}
	if prunedEvals > dpEvals {
		t.Fatalf("pruned pair evals %d exceed DP %d", prunedEvals, dpEvals)
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"e1", "E1", "e8", "e9", "E9"} {
		if _, ok := ByID(id); !ok {
			t.Fatalf("ByID(%q) not found", id)
		}
	}
	if _, ok := ByID("e99"); ok {
		t.Fatal("phantom experiment")
	}
}

// E9 shape: one row per shard count 1/2/4/8, the first being the
// 1-shard reference every speedup is relative to.
func TestE9Shape(t *testing.T) {
	tbl, err := E9(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("got %d shard points, want 4", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "1" || tbl.Rows[0][4] != "1.00x" {
		t.Fatalf("first row must be the 1-shard reference: %v", tbl.Rows[0])
	}
	for _, row := range tbl.Rows {
		qps, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if qps <= 0 || parseInt(t, row[2]) <= 0 {
			t.Fatalf("non-positive timing in %v", row)
		}
	}
}
