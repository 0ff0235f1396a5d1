package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"modelir/internal/topk"
)

// refDot is the naive row-major reference: the same ascending-column
// multiply-add sequence every kernel must reproduce bit for bit.
func refDot(p, w []float64) float64 {
	s := 0.0
	for d, c := range w {
		s += c * p[d]
	}
	return s
}

// TestKernelSelection pins which dimensions get unrolled bodies.
func TestKernelSelection(t *testing.T) {
	want := map[int]string{
		1: "generic4", 2: "dim2", 3: "generic4", 4: "dim4", 5: "generic4",
		7: "generic4", 8: "dim8", 9: "generic4", 15: "generic4", 16: "dim16",
		17: "generic4",
	}
	rng := rand.New(rand.NewSource(11))
	for dim, name := range want {
		st, err := Build(randomPoints(rng, 8, dim), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st.KernelName() != name {
			t.Fatalf("dim %d: kernel %q, want %q", dim, st.KernelName(), name)
		}
		st, err = Build(randomPoints(rng, 8, dim), Options{ForceGenericKernel: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.KernelName() != "generic4" {
			t.Fatalf("dim %d forced: kernel %q, want generic4", dim, st.KernelName())
		}
	}
}

// TestKernelsBitIdentical scores every dimension 1..20 through the
// selected kernel, the forced-generic kernel, and the naive row dot,
// and requires exact score equality — including weight vectors with
// zero, negative and tiny coefficients.
func TestKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for dim := 1; dim <= 20; dim++ {
		n := 700 // multiple blocks at BlockRows 256
		pts := randomPoints(rng, n, dim)
		w := make([]float64, dim)
		for d := range w {
			switch d % 4 {
			case 0:
				w[d] = rng.NormFloat64()
			case 1:
				w[d] = 0
			case 2:
				w[d] = -rng.Float64() * 3
			default:
				w[d] = rng.NormFloat64() * 1e-9
			}
		}
		spec, err := Build(pts, Options{BlockRows: 256})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := Build(pts, Options{BlockRows: 256, ForceGenericKernel: true})
		if err != nil {
			t.Fatal(err)
		}
		scoresSpec := make([]float64, n)
		scoresGen := make([]float64, n)
		scoresScan := make([]float64, n)
		for b := 0; b < spec.NumBlocks(); b++ {
			lo, hi := spec.blockStart[b], spec.blockStart[b+1]
			spec.kern(spec.cols, lo, hi, w, scoresSpec[lo:hi])
			gen.kern(gen.cols, lo, hi, w, scoresGen[lo:hi])
			// The per-scan selection (sparse body here — w has zeros).
			spec.scanKernel(w)(spec.cols, lo, hi, w, scoresScan[lo:hi])
		}
		for i := 0; i < n; i++ {
			want := refDot(pts[spec.ids[i]], w)
			if scoresSpec[i] != want {
				t.Fatalf("dim %d row %d: %s kernel %v, naive %v", dim, i, spec.kernName, scoresSpec[i], want)
			}
			if scoresGen[i] != want {
				t.Fatalf("dim %d row %d: generic kernel %v, naive %v", dim, i, scoresGen[i], want)
			}
			if scoresScan[i] != want {
				t.Fatalf("dim %d row %d: scan-selected kernel %v, naive %v", dim, i, scoresScan[i], want)
			}
		}
	}
}

// TestScanKernelSelection pins the per-scan sparse fallback: any zero
// coefficient routes the scan to the column-skipping body, dense
// weights keep the store's dimension-selected kernel.
func TestScanKernelSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	st, err := Build(randomPoints(rng, 16, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dense := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	sparse := []float64{1, 0, 3, 4, 5, 6, 7, 8}
	denseK := st.scanKernel(dense)
	sparseK := st.scanKernel(sparse)
	// Function identity: compare observable behavior on a block where
	// the skipped column would matter if mishandled.
	s1 := make([]float64, 16)
	s2 := make([]float64, 16)
	denseK(st.cols, 0, 16, dense, s1)
	sparseK(st.cols, 0, 16, sparse, s2)
	for i := 0; i < 16; i++ {
		if want := refDot(randomPointsRow(st, i), dense); s1[i] != want {
			t.Fatalf("dense row %d: %v vs %v", i, s1[i], want)
		}
		if want := refDot(randomPointsRow(st, i), sparse); s2[i] != want {
			t.Fatalf("sparse row %d: %v vs %v", i, s2[i], want)
		}
	}
}

// randomPointsRow reads storage row r back out of the store.
func randomPointsRow(st *Store, r int) []float64 {
	p := make([]float64, st.Dim())
	for d := range p {
		p[d] = st.At(r, d)
	}
	return p
}

// TestKernelScanEquivalence runs whole top-K scans through specialized
// and generic stores and requires identical item sets — the end-to-end
// form of the bit-identity contract.
func TestKernelScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, dim := range []int{2, 4, 6, 8, 16} {
		pts := randomPoints(rng, 3000, dim)
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.NormFloat64()
		}
		wNorm := WeightNorm(w)
		for _, norm := range []bool{false, true} {
			spec, err := Build(pts, Options{BlockRows: 128, NormOrder: norm})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := Build(pts, Options{BlockRows: 128, NormOrder: norm, ForceGenericKernel: true})
			if err != nil {
				t.Fatal(err)
			}
			hs, hg := topk.MustHeap(17), topk.MustHeap(17)
			var sts, stg Stats
			spec.Scan(w, wNorm, hs, nil, nil, nil, &sts)
			gen.Scan(w, wNorm, hg, nil, nil, nil, &stg)
			rs, rg := hs.Results(), hg.Results()
			if len(rs) != len(rg) {
				t.Fatalf("dim %d: %d vs %d items", dim, len(rs), len(rg))
			}
			for i := range rs {
				if rs[i].ID != rg[i].ID || rs[i].Score != rg[i].Score {
					t.Fatalf("dim %d pos %d: %+v vs %+v", dim, i, rs[i], rg[i])
				}
			}
		}
	}
}

// BenchmarkKernel compares the specialized kernels against the generic
// fallback on the dimensions that have unrolled bodies.
func BenchmarkKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	for _, dim := range []int{2, 4, 8, 16} {
		pts := randomPoints(rng, 100_000, dim)
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.NormFloat64()
		}
		wNorm := WeightNorm(w)
		for _, generic := range []bool{false, true} {
			st, err := Build(pts, Options{ForceGenericKernel: generic})
			if err != nil {
				b.Fatal(err)
			}
			h := topk.MustHeap(10)
			var cst Stats
			name := fmt.Sprintf("dim=%d/kernel=%s", dim, st.KernelName())
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					h.Reset()
					st.Scan(w, wNorm, h, nil, nil, nil, &cst)
				}
			})
		}
	}
}
