package tensor

import "fmt"

// ConvGeom captures the geometry of a 2D convolution or pooling over NCHW
// tensors. All fields are in elements.
type ConvGeom struct {
	InC, InH, InW int // input channels / height / width
	KH, KW        int // kernel height / width
	Stride        int
	Pad           int
	OutH, OutW    int // derived output spatial dims
}

// NewConvGeom computes output dimensions and validates the geometry.
func NewConvGeom(inC, inH, inW, kh, kw, stride, pad int) (ConvGeom, error) {
	if inC <= 0 || inH <= 0 || inW <= 0 || kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
		return ConvGeom{}, fmt.Errorf("tensor: invalid conv geometry c=%d h=%d w=%d k=%dx%d s=%d p=%d", inC, inH, inW, kh, kw, stride, pad)
	}
	oh := (inH+2*pad-kh)/stride + 1
	ow := (inW+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		return ConvGeom{}, fmt.Errorf("tensor: conv output empty (in %dx%d kernel %dx%d stride %d pad %d)", inH, inW, kh, kw, stride, pad)
	}
	return ConvGeom{InC: inC, InH: inH, InW: inW, KH: kh, KW: kw, Stride: stride, Pad: pad, OutH: oh, OutW: ow}, nil
}

// ColRows returns the row count of the im2col matrix: C*KH*KW.
func (g ConvGeom) ColRows() int { return g.InC * g.KH * g.KW }

// ColCols returns the column count of the im2col matrix: OutH*OutW.
func (g ConvGeom) ColCols() int { return g.OutH * g.OutW }

// checkLens panics unless img and col have the lengths of one image and
// its column matrix.
func (g ConvGeom) checkLens(op string, img, col []float64) {
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: %s image len %d != %d", op, len(img), g.InC*g.InH*g.InW))
	}
	if len(col) != g.ColRows()*g.ColCols() {
		panic(fmt.Sprintf("tensor: %s col len %d != %d", op, len(col), g.ColRows()*g.ColCols()))
	}
}

// tapRange returns the output positions [lo, hi) whose input coordinate
// o*stride - pad + tap falls inside [0, in), for one kernel tap along one
// axis; every other position reads padding. An empty range is (0, 0).
func tapRange(tap, in, out, stride, pad int) (lo, hi int) {
	// lo = ceil((pad-tap)/stride), hi-1 = floor((in-1+pad-tap)/stride).
	if d := pad - tap; d > 0 {
		lo = (d + stride - 1) / stride
	}
	hi = out
	if d := in - 1 + pad - tap; d < 0 {
		hi = 0
	} else if d/stride+1 < hi {
		hi = d/stride + 1
	}
	if hi <= lo {
		return 0, 0
	}
	return lo, hi
}

// tapRanges is tapRange for both axes of the tap (ky, kx). A tap whose
// column range is empty reads only padding, so its row range is emptied
// too: every in-range (oy, ox) then addresses a real input element.
func (g ConvGeom) tapRanges(ky, kx int) (oy0, oy1, ox0, ox1 int) {
	ox0, ox1 = tapRange(kx, g.InW, g.OutW, g.Stride, g.Pad)
	if ox0 == ox1 {
		return 0, 0, 0, 0
	}
	oy0, oy1 = tapRange(ky, g.InH, g.OutH, g.Stride, g.Pad)
	return oy0, oy1, ox0, ox1
}

// Im2Col expands one image (CHW layout, len = C*H*W) into the column matrix
// col (len = ColRows x ColCols, row-major) so that convolution becomes a
// matrix multiply: out[F, OH*OW] = W[F, C*KH*KW] x col.
// Out-of-bounds (padding) taps contribute zeros.
//
// Each tap's in-bounds output range is computed once, so the inner loop is
// a branch-free strided gather; at stride 1 it is a contiguous row copy.
//
//fedtripvet:hotpath
func (g ConvGeom) Im2Col(img, col []float64) {
	g.checkLens("im2col", img, col)
	cols := g.ColCols()
	s, ow := g.Stride, g.OutW
	row := 0
	for c := 0; c < g.InC; c++ {
		ch := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				oy0, oy1, ox0, ox1 := g.tapRanges(ky, kx)
				dst := col[row*cols : (row+1)*cols]
				clear(dst[:oy0*ow])
				clear(dst[oy1*ow:])
				for oy := oy0; oy < oy1; oy++ {
					d := dst[oy*ow : (oy+1)*ow]
					clear(d[:ox0])
					clear(d[ox1:])
					src := ch[(oy*s-g.Pad+ky)*g.InW+ox0*s-g.Pad+kx:]
					d = d[ox0:ox1]
					if s == 1 {
						copy(d, src)
						continue
					}
					_ = src[(len(d)-1)*s]
					for i := range d {
						d[i] = src[i*s]
					}
				}
				row++
			}
		}
	}
}

// Col2Im scatter-adds the column matrix back into an image, accumulating
// overlapping taps. It is the adjoint of Im2Col and is used to propagate
// gradients to a convolution layer's input. The caller must zero img first
// if accumulation from a clean slate is desired.
//
// Taps are visited in the same (channel, tap, output position) order as a
// per-element bounds check would visit them, so every image element sums
// its contributions in the same order; padding taps add nothing.
//
//fedtripvet:hotpath
func (g ConvGeom) Col2Im(col, img []float64) {
	g.checkLens("col2im", img, col)
	cols := g.ColCols()
	s, ow := g.Stride, g.OutW
	row := 0
	for c := 0; c < g.InC; c++ {
		ch := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				oy0, oy1, ox0, ox1 := g.tapRanges(ky, kx)
				src := col[row*cols : (row+1)*cols]
				for oy := oy0; oy < oy1; oy++ {
					sv := src[oy*ow+ox0 : oy*ow+ox1]
					dst := ch[(oy*s-g.Pad+ky)*g.InW+ox0*s-g.Pad+kx:]
					_ = dst[(len(sv)-1)*s]
					for i, v := range sv {
						dst[i*s] += v
					}
				}
				row++
			}
		}
	}
}
