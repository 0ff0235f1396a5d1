package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortQuantile is the nearest-rank q-quantile of xs by sorting.
func sortQuantile(xs []int64, q float64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func TestHistQuantilesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func() int64{
		"exponential": func() int64 { return int64(rng.ExpFloat64() * 1e6) },
		"lognormal":   func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 12)) },
		"small ints":  func() int64 { return int64(rng.Intn(300)) },
		"constant":    func() int64 { return 123456 },
	}
	for name, draw := range dists {
		for _, n := range []int{1, 7, 100, 10000} {
			xs := make([]int64, n)
			var h hist
			for i := range xs {
				xs[i] = draw()
				h.record(time.Duration(xs[i]))
			}
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				got, want := int64(h.quantile(q)), sortQuantile(xs, q)
				if tol := max(float64(want)/(1<<subBits), 1); math.Abs(float64(got-want)) > tol {
					t.Errorf("%s n=%d q=%v: hist %d, sort %d (tolerance %.1f)", name, n, q, got, want, tol)
				}
			}
		}
	}
}

func TestHistMergeEqualsOneHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var all, a, b hist
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.ExpFloat64() * 1e5)
		all.record(d)
		if i%3 == 0 {
			a.record(d)
		} else {
			b.record(d)
		}
	}
	a.merge(&b)
	for _, q := range []float64{0.5, 0.99, 1} {
		if a.quantile(q) != all.quantile(q) {
			t.Errorf("q=%v: merged %v, single %v", q, a.quantile(q), all.quantile(q))
		}
	}
}

func TestHistEmptyAndBuckets(t *testing.T) {
	var h hist
	if h.quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", h.quantile(0.5))
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 40} {
		low, width := bucketRange(bucketOf(v))
		if v < low || v >= low+width {
			t.Errorf("value %d outside its bucket [%d, %d)", v, low, low+width)
		}
	}
}

func TestWindowedIsMedianOfWindowsAndSkipsEmpty(t *testing.T) {
	ws := make([]hist, 4)
	for i, v := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 3 * time.Millisecond} {
		ws[i].record(v)
	}
	if got := windowed(ws, 0.99); math.Abs(got-3) > 3.0/(1<<subBits) {
		t.Fatalf("windowed = %vms, want the median window's 3ms", got)
	}
}
