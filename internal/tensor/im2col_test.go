package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewConvGeom(t *testing.T) {
	g, err := NewConvGeom(3, 32, 32, 5, 5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutH != 32 || g.OutW != 32 {
		t.Fatalf("same-pad 5x5 should preserve dims, got %dx%d", g.OutH, g.OutW)
	}
	g, err = NewConvGeom(1, 28, 28, 5, 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutH != 24 || g.OutW != 24 {
		t.Fatalf("valid conv dims wrong: %dx%d", g.OutH, g.OutW)
	}
	if g.ColRows() != 25 || g.ColCols() != 24*24 {
		t.Fatalf("col dims wrong: %dx%d", g.ColRows(), g.ColCols())
	}
}

func TestNewConvGeomErrors(t *testing.T) {
	if _, err := NewConvGeom(0, 8, 8, 3, 3, 1, 0); err == nil {
		t.Fatal("zero channels accepted")
	}
	if _, err := NewConvGeom(1, 2, 2, 5, 5, 1, 0); err == nil {
		t.Fatal("kernel larger than padded input accepted")
	}
	if _, err := NewConvGeom(1, 8, 8, 3, 3, 0, 0); err == nil {
		t.Fatal("zero stride accepted")
	}
	if _, err := NewConvGeom(1, 8, 8, 3, 3, 1, -1); err == nil {
		t.Fatal("negative pad accepted")
	}
}

// naiveConv computes a direct convolution for reference.
func naiveConv(g ConvGeom, img, kernel []float64, outC int) []float64 {
	out := make([]float64, outC*g.OutH*g.OutW)
	for f := 0; f < outC; f++ {
		for oy := 0; oy < g.OutH; oy++ {
			for ox := 0; ox < g.OutW; ox++ {
				var s float64
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.KH; ky++ {
						for kx := 0; kx < g.KW; kx++ {
							iy := oy*g.Stride - g.Pad + ky
							ix := ox*g.Stride - g.Pad + kx
							if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
								continue
							}
							kidx := ((f*g.InC+c)*g.KH+ky)*g.KW + kx
							s += kernel[kidx] * img[(c*g.InH+iy)*g.InW+ix]
						}
					}
				}
				out[(f*g.OutH+oy)*g.OutW+ox] = s
			}
		}
	}
	return out
}

func TestIm2ColMatMulMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct{ c, h, w, kh, kw, s, p, f int }{
		{1, 6, 6, 3, 3, 1, 0, 2},
		{2, 8, 7, 3, 3, 1, 1, 3},
		{3, 9, 9, 5, 5, 2, 2, 4},
		{1, 5, 5, 5, 5, 1, 0, 1},
	}
	for _, tc := range cases {
		g, err := NewConvGeom(tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.s, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]float64, tc.c*tc.h*tc.w)
		for i := range img {
			img[i] = rng.NormFloat64()
		}
		kernel := make([]float64, tc.f*tc.c*tc.kh*tc.kw)
		for i := range kernel {
			kernel[i] = rng.NormFloat64()
		}
		col := New(g.ColRows(), g.ColCols())
		g.Im2Col(img, col.Data)
		w := FromSlice(kernel, tc.f, g.ColRows())
		out := New(tc.f, g.ColCols())
		MatMul(out, w, col)
		want := naiveConv(g, img, kernel, tc.f)
		if d := MaxAbsDiff(out.Data, want); d > 1e-10 {
			t.Fatalf("case %+v: im2col conv differs from naive by %v", tc, d)
		}
	}
}

// Adjoint property: <Im2Col(x), y> == <x, Col2Im(y)> for all x, y. This is
// exactly the condition for Col2Im to backpropagate gradients correctly.
// Small integer entries keep every product and partial sum exactly
// representable, so the identity holds with == and any misplaced or
// dropped tap shows.
func TestIm2ColCol2ImAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ints := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(r.Intn(17) - 8)
			}
			return v
		}
		g := randGeom(r)
		x, y := ints(g.InC*g.InH*g.InW), ints(g.ColRows()*g.ColCols())
		cx := make([]float64, len(y))
		g.Im2Col(x, cx)
		xy := make([]float64, len(x))
		g.Col2Im(y, xy)
		return Dot(cx, y) == Dot(x, xy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColLengthPanics(t *testing.T) {
	g, _ := NewConvGeom(1, 4, 4, 3, 3, 1, 0)
	defer expectPanic(t, "img len")
	g.Im2Col(make([]float64, 3), make([]float64, g.ColRows()*g.ColCols()))
}

func TestCol2ImLengthPanics(t *testing.T) {
	g, _ := NewConvGeom(1, 4, 4, 3, 3, 1, 0)
	defer expectPanic(t, "col len")
	g.Col2Im(make([]float64, 3), make([]float64, 16))
}

// refIm2Col is the per-element reference: every (tap, output position)
// checks its input coordinate against the image bounds.
func refIm2Col(g ConvGeom, img, col []float64) {
	di := 0
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				for oy := 0; oy < g.OutH; oy++ {
					for ox := 0; ox < g.OutW; ox++ {
						iy, ix := oy*g.Stride-g.Pad+ky, ox*g.Stride-g.Pad+kx
						col[di] = 0
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							col[di] = img[(c*g.InH+iy)*g.InW+ix]
						}
						di++
					}
				}
			}
		}
	}
}

// refCol2Im is the per-element reference adjoint, visiting taps in the
// same order as refIm2Col.
func refCol2Im(g ConvGeom, col, img []float64) {
	si := 0
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				for oy := 0; oy < g.OutH; oy++ {
					for ox := 0; ox < g.OutW; ox++ {
						iy, ix := oy*g.Stride-g.Pad+ky, ox*g.Stride-g.Pad+kx
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							img[(c*g.InH+iy)*g.InW+ix] += col[si]
						}
						si++
					}
				}
			}
		}
	}
}

// randGeom draws a valid geometry with stride in {1,2,3} and pad in
// [0,k), including kernels wider than the unpadded image.
func randGeom(r *rand.Rand) ConvGeom {
	for {
		k := 1 + r.Intn(5)
		g, err := NewConvGeom(1+r.Intn(3), 1+r.Intn(9), 1+r.Intn(9), k, k, 1+r.Intn(3), r.Intn(k))
		if err == nil {
			return g
		}
	}
}

// TestIm2ColCol2ImMatchReference pins both kernels to the per-element
// reference with ==: Im2Col copies the same values and exact zeros,
// and Col2Im adds into a non-zero image in the same order.
func TestIm2ColCol2ImMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for it := 0; it < 2000; it++ {
		g := randGeom(r)
		img := make([]float64, g.InC*g.InH*g.InW)
		for i := range img {
			img[i] = r.NormFloat64()
		}
		got, want := make([]float64, g.ColRows()*g.ColCols()), make([]float64, g.ColRows()*g.ColCols())
		for i := range got {
			got[i] = math.NaN() // every slot must be written
		}
		g.Im2Col(img, got)
		refIm2Col(g, img, want)
		for i := range want {
			if got[i] != want[i] || math.Signbit(got[i]) != math.Signbit(want[i]) {
				t.Fatalf("%+v: Im2Col[%d] = %v, reference %v", g, i, got[i], want[i])
			}
		}
		col := make([]float64, len(want))
		for i := range col {
			col[i] = r.NormFloat64()
		}
		gotImg, wantImg := append([]float64(nil), img...), append([]float64(nil), img...)
		g.Col2Im(col, gotImg)
		refCol2Im(g, col, wantImg)
		for i := range wantImg {
			if gotImg[i] != wantImg[i] {
				t.Fatalf("%+v: Col2Im[%d] = %v, reference %v", g, i, gotImg[i], wantImg[i])
			}
		}
	}
}
