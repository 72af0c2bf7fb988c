package tensor

import "repro/internal/parallel"

// Cache-blocked, register-tiled GEMM micro-kernel. One kernel backs every
// matmul variant in the package (MatMul, MatMulAddBias, MatMulATB,
// MatMulABT and their accumulating forms): the variants differ only in how
// the A and B operands are *addressed*, which the pack routines absorb as
// row/column strides, and in how C is initialised (zero, bias broadcast,
// or left in place to accumulate).
//
// Structure (GotoBLAS/BLIS "gebp" decomposition):
//
//   - degenerate shapes (a single shared dimension, a single output row or
//     column) take pack-free dot/axpy paths — im2col turns the last conv
//     of a LeNet-style net into exactly these shapes, where tiling would
//     waste most of its work on padding;
//   - k is split into panels of gemmKC so the packed operands stay
//     cache-resident across the whole row sweep;
//   - n is split into blocks of gemmNC; each worker packs the B panel
//     (gemmKC x gemmNC, zero-padded to multiples of gemmNR) once per
//     block into its own scratch buffer;
//   - m is split into blocks of gemmMC whose A rows are packed
//     (zero-padded to multiples of gemmMR) and then swept by the
//     register-tiled micro-kernels, which keep the full C tile in locals
//     across the k loop. Remainder tiles run narrower kernels instead of
//     computing padded lanes.
//
// Determinism: block sizes are compile-time constants, every C element
// accumulates its k terms in strictly increasing k order (panel order,
// then in-panel order), there are no atomics and no data-dependent
// shortcuts, and parallel workers own disjoint row ranges. Results are
// identical run to run and do not depend on the worker count, because
// row-tile boundaries never change an element's accumulation order. Zero
// padding only ever feeds discarded pad slots, never a live element.
const (
	gemmMR = 4   // micro-tile rows (register-resident C rows)
	gemmNR = 4   // micro-tile cols (register-resident C cols)
	gemmKC = 256 // k panel: one packed A micro-panel is gemmKC*gemmMR*8 = 8 KiB (L1)
	gemmMC = 64  // m block: packed A block is gemmMC*gemmKC*8 = 128 KiB (L2)
	gemmNC = 256 // n block: packed B panel is gemmKC*gemmNC*8 = 512 KiB (L2/L3)

	// gemmParMin is the minimum number of row tiles worth splitting across
	// goroutines — 64 tiles is 256 rows, matching the old per-row kernels'
	// parallelism threshold.
	gemmParMin = 64

	// gemmSmallM is the row count below which packing B cannot amortise
	// (each packed element would be reused at most gemmSmallM/gemmMR
	// times): such calls take the direct-B path, which packs only A and
	// streams B in place. Batch-sized dense layers and few-filter conv
	// layers live here.
	gemmSmallM = 32
)

// gemmScratch is one worker's packing storage. Buffers grow to the
// high-water mark, so steady-state GEMM calls allocate nothing. Serial
// calls recycle theirs through gemmScratches; parallel chunks use the
// scratch their gemmJob keeps per chunk.
type gemmScratch struct {
	a, b []float64
	tile [gemmMR * gemmNR]float64
}

var gemmScratches parallel.FreeList[gemmScratch]

func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// gemm computes C += A x B over strided operand views, after initialising
// C according to bias/accumulate (nil bias: zeroed; accumulate: left in
// place). Operands are addressed as A[i,p] = ad[i*ars + p*acs] (m x k) and
// B[p,j] = bd[p*brs + j*bcs] (k x n); C is row-major m x n. Transposed
// variants are expressed purely through the strides.
//
//fedtripvet:hotpath
func gemm(cd []float64, m, n, k int, ad []float64, ars, acs int, bd []float64, brs, bcs int, bias []float64, accumulate bool) {
	// Degenerate shapes: pack-free vector paths.
	if n == 1 && gemvN1(cd, m, k, ad, ars, acs, bd, brs, bias, accumulate) {
		return
	}
	if k == 1 && bcs == 1 {
		outerK1(cd, m, n, ad, ars, bd, bias, accumulate)
		return
	}
	if m == 1 && bcs == 1 {
		gemvM1(cd, n, k, ad, acs, bd, brs, bias, accumulate)
		return
	}
	if m <= gemmSmallM && (bcs == 1 || brs == 1) {
		gemmDirect(cd, m, n, k, ad, ars, acs, bd, brs, bcs, bias, accumulate)
		return
	}
	mTiles := (m + gemmMR - 1) / gemmMR
	if parallel.Serial(mTiles, gemmParMin) {
		sc := gemmScratches.Get()
		gemmRows(sc, cd, 0, m, n, k, ad, ars, acs, bd, brs, bcs, bias, accumulate)
		gemmScratches.Put(sc)
		return
	}
	j := gemmJobs.Get()
	j.op = gemmOp{cd, m, n, k, ad, ars, acs, bd, brs, bcs, bias, accumulate}
	chunks := min(parallel.Workers(), mTiles)
	j.size = (mTiles + chunks - 1) / chunks
	chunks = (mTiles + j.size - 1) / j.size
	for len(j.scratch) < chunks {
		j.scratch = append(j.scratch, new(gemmScratch)) //fedtripvet:allow one scratch per chunk, grows to GOMAXPROCS once
	}
	parallel.RunChunked(chunks, 1, j)
	j.op = gemmOp{}
	gemmJobs.Put(j)
}

// gemmOp is one gemm call's operands.
type gemmOp struct {
	cd         []float64
	m, n, k    int
	ad         []float64
	ars, acs   int
	bd         []float64
	brs, bcs   int
	bias       []float64
	accumulate bool
}

// gemmJob carries one parallel gemm call's operands to its row-tile
// chunks. Chunk c always covers the same rows of a given shape and packs
// into its own scratch[c], so each scratch reaches its high-water mark
// the first time the job runs a shape, whichever goroutine claims the
// chunk. Jobs are pooled, so the parallel path allocates nothing once
// every shape has run.
type gemmJob struct {
	op      gemmOp
	size    int // row tiles per chunk
	scratch []*gemmScratch
}

var gemmJobs parallel.FreeList[gemmJob]

// Chunk runs chunks [clo, chi): clo alone when the pool has a goroutine
// per chunk, several in order when GOMAXPROCS shrank since gemm split the
// rows.
//
//fedtripvet:hotpath
func (j *gemmJob) Chunk(clo, chi int) {
	o := &j.op
	for c := clo; c < chi; c++ {
		ilo := c * j.size * gemmMR
		ihi := min(ilo+j.size*gemmMR, o.m)
		gemmRows(j.scratch[c], o.cd, ilo, ihi, o.n, o.k, o.ad, o.ars, o.acs, o.bd, o.brs, o.bcs, o.bias, o.accumulate)
	}
}

// gemvN1 handles n == 1 (C is a column vector): a row-major A runs one dot
// product per output element, a column-major A (a transposed operand)
// accumulates axpy columns. Reports false when neither operand layout
// admits a contiguous path (the caller falls through to the tiled kernel).
//
//fedtripvet:hotpath
func gemvN1(cd []float64, m, k int, ad []float64, ars, acs int, bd []float64, brs int, bias []float64, accumulate bool) bool {
	switch {
	case acs == 1 && brs == 1:
		// C[i] = A_row(i) . B; both contiguous.
		bcol := bd[:k]
		for i := 0; i < m; i++ {
			s := dotKernel(ad[i*ars:i*ars+k], bcol)
			switch {
			case accumulate:
				cd[i] += s
			case bias != nil:
				cd[i] = bias[0] + s
			default:
				cd[i] = s
			}
		}
		return true
	case ars == 1:
		// Columns of the A view are contiguous: C += B[p] * A_col(p),
		// accumulating every element's k terms in increasing k order.
		c := cd[:m]
		if !accumulate {
			v := 0.0
			if bias != nil {
				v = bias[0]
			}
			for i := range c {
				c[i] = v
			}
		}
		for p := 0; p < k; p++ {
			axpyKernel(c, ad[p*acs:p*acs+m], bd[p*brs])
		}
		return true
	}
	return false
}

// outerK1 handles k == 1: C (+)= A_col x B_row, one axpy per output row.
//
//fedtripvet:hotpath
func outerK1(cd []float64, m, n int, ad []float64, ars int, bd []float64, bias []float64, accumulate bool) {
	brow := bd[:n]
	for i := 0; i < m; i++ {
		ci := cd[i*n : (i+1)*n]
		if !accumulate {
			if bias == nil {
				for j := range ci {
					ci[j] = 0
				}
			} else {
				copy(ci, bias)
			}
		}
		axpyKernel(ci, brow, ad[i*ars])
	}
}

// gemvM1 handles m == 1 (C is a row vector): C (+)= sum_p A[p] * B_row(p).
//
//fedtripvet:hotpath
func gemvM1(cd []float64, n, k int, ad []float64, acs int, bd []float64, brs int, bias []float64, accumulate bool) {
	c := cd[:n]
	if !accumulate {
		if bias == nil {
			for j := range c {
				c[j] = 0
			}
		} else {
			copy(c, bias)
		}
	}
	for p := 0; p < k; p++ {
		axpyKernel(c, bd[p*brs:p*brs+n], ad[p*acs])
	}
}

// gemmRows runs the blocked GEMM over the row range [ilo, ihi) of C. Row
// ranges handed to different workers start at multiples of gemmMR, so
// micro-tiles never straddle workers.
//
//fedtripvet:hotpath
func gemmRows(sc *gemmScratch, cd []float64, ilo, ihi, n, k int, ad []float64, ars, acs int, bd []float64, brs, bcs int, bias []float64, accumulate bool) {
	if !accumulate {
		gemmInit(cd, ilo, ihi, n, bias)
	}
	for p0 := 0; p0 < k; p0 += gemmKC {
		kc := k - p0
		if kc > gemmKC {
			kc = gemmKC
		}
		for j0 := 0; j0 < n; j0 += gemmNC {
			nc := n - j0
			if nc > gemmNC {
				nc = gemmNC
			}
			packB(sc, bd, p0, kc, j0, nc, brs, bcs)
			for i0 := ilo; i0 < ihi; i0 += gemmMC {
				mc := ihi - i0
				if mc > gemmMC {
					mc = gemmMC
				}
				packA(sc, ad, i0, mc, p0, kc, ars, acs)
				gebp(cd, n, i0, mc, j0, nc, kc, sc)
			}
		}
	}
}

// gemmInit prepares the C rows a worker owns: zeroed, or set to the bias
// vector broadcast over rows.
//
//fedtripvet:hotpath
func gemmInit(cd []float64, ilo, ihi, n int, bias []float64) {
	for i := ilo; i < ihi; i++ {
		ci := cd[i*n : (i+1)*n]
		if bias == nil {
			for j := range ci {
				ci[j] = 0
			}
		} else {
			copy(ci, bias)
		}
	}
}

// packA copies the mc x kc block of A at (i0, p0) into sc.a as
// ceil(mc/gemmMR) row micro-panels, each laid out k-major:
// dst[panel*kc*MR + p*MR + r]. Rows past mc are zero-padded (the pad lanes
// are only read by the full 4-row kernel on interior tiles, never written
// back).
//
//fedtripvet:hotpath
func packA(sc *gemmScratch, ad []float64, i0, mc, p0, kc, ars, acs int) {
	panels := (mc + gemmMR - 1) / gemmMR
	dst := grow(sc.a, panels*kc*gemmMR)
	sc.a = dst
	di := 0
	for ib := 0; ib < panels; ib++ {
		base := i0 + ib*gemmMR
		rows := mc - ib*gemmMR
		if rows >= gemmMR && acs == 1 {
			// Full panel over contiguous A rows: copy by source row.
			r0 := ad[(base+0)*ars+p0 : (base+0)*ars+p0+kc]
			r1 := ad[(base+1)*ars+p0 : (base+1)*ars+p0+kc]
			r2 := ad[(base+2)*ars+p0 : (base+2)*ars+p0+kc]
			r3 := ad[(base+3)*ars+p0 : (base+3)*ars+p0+kc]
			for p := 0; p < kc; p++ {
				dst[di] = r0[p]
				dst[di+1] = r1[p]
				dst[di+2] = r2[p]
				dst[di+3] = r3[p]
				di += gemmMR
			}
			continue
		}
		if rows > gemmMR {
			rows = gemmMR
		}
		for p := 0; p < kc; p++ {
			off := (p0 + p) * acs
			for r := 0; r < gemmMR; r++ {
				if r < rows {
					dst[di] = ad[(base+r)*ars+off]
				} else {
					dst[di] = 0
				}
				di++
			}
		}
	}
}

// packB copies the kc x nc block of B at (p0, j0) into sc.b as
// ceil(nc/gemmNR) column micro-panels, each laid out k-major:
// dst[panel*kc*NR + p*NR + c]. Columns past nc are zero-padded.
//
//fedtripvet:hotpath
func packB(sc *gemmScratch, bd []float64, p0, kc, j0, nc, brs, bcs int) {
	panels := (nc + gemmNR - 1) / gemmNR
	dst := grow(sc.b, panels*kc*gemmNR)
	sc.b = dst
	for jb := 0; jb < panels; jb++ {
		base := j0 + jb*gemmNR
		cols := nc - jb*gemmNR
		di := jb * kc * gemmNR
		if cols >= gemmNR && bcs == 1 {
			// Full panel over contiguous B rows: 4-wide row copies.
			for p := 0; p < kc; p++ {
				src := bd[(p0+p)*brs+base : (p0+p)*brs+base+gemmNR]
				dst[di] = src[0]
				dst[di+1] = src[1]
				dst[di+2] = src[2]
				dst[di+3] = src[3]
				di += gemmNR
			}
			continue
		}
		if cols > gemmNR {
			cols = gemmNR
		}
		for p := 0; p < kc; p++ {
			off := (p0 + p) * brs
			for c := 0; c < gemmNR; c++ {
				if c < cols {
					dst[di] = bd[off+(base+c)*bcs]
				} else {
					dst[di] = 0
				}
				di++
			}
		}
	}
}

// gebp sweeps the packed A block against the packed B panel, updating the
// C block at (i0, j0). Interior tiles run the full 4x4 register kernel;
// remainder rows and columns run narrower kernels so no padded lane is
// ever computed, except at the (rare) corner tile, which stages through
// the scratch tile.
//
//fedtripvet:hotpath
func gebp(cd []float64, ldc, i0, mc, j0, nc, kc int, sc *gemmScratch) {
	mPanels := (mc + gemmMR - 1) / gemmMR
	nPanels := (nc + gemmNR - 1) / gemmNR
	for ib := 0; ib < mPanels; ib++ {
		ap := sc.a[ib*kc*gemmMR : (ib+1)*kc*gemmMR]
		row := i0 + ib*gemmMR
		rows := mc - ib*gemmMR
		if rows > gemmMR {
			rows = gemmMR
		}
		for jb := 0; jb < nPanels; jb++ {
			bp := sc.b[jb*kc*gemmNR : (jb+1)*kc*gemmNR]
			col := j0 + jb*gemmNR
			cols := nc - jb*gemmNR
			if cols > gemmNR {
				cols = gemmNR
			}
			off := row*ldc + col
			switch {
			case rows == 4 && cols == 4:
				kern4x4(kc, ap, bp, cd[off:off+4], cd[off+ldc:off+ldc+4], cd[off+2*ldc:off+2*ldc+4], cd[off+3*ldc:off+3*ldc+4])
			case rows == 4:
				kern4xN(kc, cols, ap, bp, cd, off, ldc)
			case cols == 4:
				kernMx4(kc, rows, ap, bp, cd[off:off+4], cd[off+(rows-1)*ldc:], ldc)
			default:
				// Corner tile: stage the live sub-tile through scratch so
				// stores stay inside C. Each live element still accumulates
				// c + t_0 + t_1 + ... in k order, like every other path.
				t := &sc.tile
				for i := range t {
					t[i] = 0
				}
				for r := 0; r < rows; r++ {
					copy(t[r*gemmNR:r*gemmNR+cols], cd[(row+r)*ldc+col:(row+r)*ldc+col+cols])
				}
				kernMx4(kc, rows, ap, bp, t[0:4], t[(rows-1)*gemmNR:], gemmNR)
				for r := 0; r < rows; r++ {
					copy(cd[(row+r)*ldc+col:(row+r)*ldc+col+cols], t[r*gemmNR:r*gemmNR+cols])
				}
			}
		}
	}
}

// gemmDirect is the small-m GEMM: A is packed once (k-major micro-panels,
// padded rows only ever land in staged scratch), B is read in place —
// either row-major (bcs == 1, loads of four consecutive elements per k
// step) or k-contiguous per output column (brs == 1, the A x B^T case,
// four parallel column streams). C tiles stay in registers across the
// whole k extent, so there is no k blocking and no C re-load at panel
// boundaries; every element still accumulates its k terms in increasing
// k order.
//
//fedtripvet:hotpath
func gemmDirect(cd []float64, m, n, k int, ad []float64, ars, acs int, bd []float64, brs, bcs int, bias []float64, accumulate bool) {
	sc := gemmScratches.Get()
	packA(sc, ad, 0, m, 0, k, ars, acs)
	if !accumulate {
		gemmInit(cd, 0, m, n, bias)
	}
	mPanels := (m + gemmMR - 1) / gemmMR
	nFull := n - n%gemmNR
	for ib := 0; ib < mPanels; ib++ {
		ap := sc.a[ib*k*gemmMR : (ib+1)*k*gemmMR]
		row := ib * gemmMR
		rows := m - row
		if rows > gemmMR {
			rows = gemmMR
		}
		for j0 := 0; j0 < nFull; j0 += gemmNR {
			off := row*n + j0
			if bcs == 1 {
				if rows == gemmMR {
					kernDir4x4(k, ap, bd[j0:], brs, cd, off, n)
				} else {
					kernDirMx4(k, rows, ap, bd[j0:], brs, cd, off, n)
				}
			} else {
				b0 := bd[(j0+0)*bcs:]
				b1 := bd[(j0+1)*bcs:]
				b2 := bd[(j0+2)*bcs:]
				b3 := bd[(j0+3)*bcs:]
				if rows == gemmMR {
					kernDirT4x4(k, ap, b0, b1, b2, b3, cd, off, n)
				} else {
					kernDirTMx4(k, rows, ap, b0, b1, b2, b3, cd, off, n)
				}
			}
		}
		// Column tail (n % 4 columns): scalar dots, still in k order.
		for j := nFull; j < n; j++ {
			for r := 0; r < rows; r++ {
				s := cd[(row+r)*n+j]
				for p := 0; p < k; p++ {
					s += ap[p*gemmMR+r] * bd[p*brs+j*bcs]
				}
				cd[(row+r)*n+j] = s
			}
		}
	}
	gemmScratches.Put(sc)
}

// kernDir4x4 is kern4x4 with B read in place from row-major storage:
// four consecutive elements at row stride brs per k step.
//
//fedtripvet:hotpath
func kernDir4x4(kc int, a, b []float64, brs int, cd []float64, off, ldc int) {
	r0 := cd[off : off+gemmNR]
	r1 := cd[off+ldc : off+ldc+gemmNR]
	r2 := cd[off+2*ldc : off+2*ldc+gemmNR]
	r3 := cd[off+3*ldc : off+3*ldc+gemmNR]
	c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
	c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
	c20, c21, c22, c23 := r2[0], r2[1], r2[2], r2[3]
	c30, c31, c32, c33 := r3[0], r3[1], r3[2], r3[3]
	a = a[:gemmMR*kc]
	for p := 0; p < kc; p++ {
		bp := b[p*brs : p*brs+gemmNR : p*brs+gemmNR]
		ap := a[gemmMR*p : gemmMR*p+gemmMR : gemmMR*p+gemmMR]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		a0, a1 := ap[0], ap[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a2, a3 := ap[2], ap[3]
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
}

// kernDirMx4 is kernDir4x4 for 1..3 live rows. All live rows accumulate
// in one pass, so each B element is loaded once, not once per row.
//
//fedtripvet:hotpath
func kernDirMx4(kc, rows int, a, b []float64, brs int, cd []float64, off, ldc int) {
	a = a[:gemmMR*kc]
	r0 := cd[off : off+gemmNR]
	c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
	switch rows {
	case 1:
		for p := 0; p < kc; p++ {
			bp := b[p*brs : p*brs+gemmNR : p*brs+gemmNR]
			a0 := a[gemmMR*p]
			c00 += a0 * bp[0]
			c01 += a0 * bp[1]
			c02 += a0 * bp[2]
			c03 += a0 * bp[3]
		}
	case 2:
		r1 := cd[off+ldc : off+ldc+gemmNR]
		c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
		for p := 0; p < kc; p++ {
			bp := b[p*brs : p*brs+gemmNR : p*brs+gemmNR]
			ap := a[gemmMR*p : gemmMR*p+2 : gemmMR*p+2]
			b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
			a0, a1 := ap[0], ap[1]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
		}
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	default: // 3 rows
		r1 := cd[off+ldc : off+ldc+gemmNR]
		r2 := cd[off+2*ldc : off+2*ldc+gemmNR]
		c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
		c20, c21, c22, c23 := r2[0], r2[1], r2[2], r2[3]
		for p := 0; p < kc; p++ {
			bp := b[p*brs : p*brs+gemmNR : p*brs+gemmNR]
			ap := a[gemmMR*p : gemmMR*p+3 : gemmMR*p+3]
			b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
			a0, a1, a2 := ap[0], ap[1], ap[2]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
		}
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
		r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
}

// kernDirT4x4 is the A x B^T micro-kernel with B read in place: four
// parallel k-contiguous column streams (b0..b3 are the four output
// columns' strides-1 views).
//
//fedtripvet:hotpath
func kernDirT4x4(kc int, a, b0, b1, b2, b3 []float64, cd []float64, off, ldc int) {
	r0 := cd[off : off+gemmNR]
	r1 := cd[off+ldc : off+ldc+gemmNR]
	r2 := cd[off+2*ldc : off+2*ldc+gemmNR]
	r3 := cd[off+3*ldc : off+3*ldc+gemmNR]
	c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
	c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
	c20, c21, c22, c23 := r2[0], r2[1], r2[2], r2[3]
	c30, c31, c32, c33 := r3[0], r3[1], r3[2], r3[3]
	a = a[:gemmMR*kc]
	b0 = b0[:kc]
	b1 = b1[:kc]
	b2 = b2[:kc]
	b3 = b3[:kc]
	for p := 0; p < kc; p++ {
		ap := a[gemmMR*p : gemmMR*p+gemmMR : gemmMR*p+gemmMR]
		v0, v1, v2, v3 := b0[p], b1[p], b2[p], b3[p]
		a0, a1 := ap[0], ap[1]
		c00 += a0 * v0
		c01 += a0 * v1
		c02 += a0 * v2
		c03 += a0 * v3
		c10 += a1 * v0
		c11 += a1 * v1
		c12 += a1 * v2
		c13 += a1 * v3
		a2, a3 := ap[2], ap[3]
		c20 += a2 * v0
		c21 += a2 * v1
		c22 += a2 * v2
		c23 += a2 * v3
		c30 += a3 * v0
		c31 += a3 * v1
		c32 += a3 * v2
		c33 += a3 * v3
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
}

// kernDirTMx4 is kernDirT4x4 for 1..3 live rows, single pass over the
// four B column streams like kernDirMx4.
//
//fedtripvet:hotpath
func kernDirTMx4(kc, rows int, a, b0, b1, b2, b3 []float64, cd []float64, off, ldc int) {
	a = a[:gemmMR*kc]
	b0 = b0[:kc]
	b1 = b1[:kc]
	b2 = b2[:kc]
	b3 = b3[:kc]
	r0 := cd[off : off+gemmNR]
	c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
	switch rows {
	case 1:
		for p := 0; p < kc; p++ {
			a0 := a[gemmMR*p]
			c00 += a0 * b0[p]
			c01 += a0 * b1[p]
			c02 += a0 * b2[p]
			c03 += a0 * b3[p]
		}
	case 2:
		r1 := cd[off+ldc : off+ldc+gemmNR]
		c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
		for p := 0; p < kc; p++ {
			ap := a[gemmMR*p : gemmMR*p+2 : gemmMR*p+2]
			v0, v1, v2, v3 := b0[p], b1[p], b2[p], b3[p]
			a0, a1 := ap[0], ap[1]
			c00 += a0 * v0
			c01 += a0 * v1
			c02 += a0 * v2
			c03 += a0 * v3
			c10 += a1 * v0
			c11 += a1 * v1
			c12 += a1 * v2
			c13 += a1 * v3
		}
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	default: // 3 rows
		r1 := cd[off+ldc : off+ldc+gemmNR]
		r2 := cd[off+2*ldc : off+2*ldc+gemmNR]
		c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
		c20, c21, c22, c23 := r2[0], r2[1], r2[2], r2[3]
		for p := 0; p < kc; p++ {
			ap := a[gemmMR*p : gemmMR*p+3 : gemmMR*p+3]
			v0, v1, v2, v3 := b0[p], b1[p], b2[p], b3[p]
			a0, a1, a2 := ap[0], ap[1], ap[2]
			c00 += a0 * v0
			c01 += a0 * v1
			c02 += a0 * v2
			c03 += a0 * v3
			c10 += a1 * v0
			c11 += a1 * v1
			c12 += a1 * v2
			c13 += a1 * v3
			c20 += a2 * v0
			c21 += a2 * v1
			c22 += a2 * v2
			c23 += a2 * v3
		}
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
		r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
}

// kern4x4 is the register micro-kernel: C_tile += Apanel x Bpanel, where
// Apanel is kc x 4 (k-major) and Bpanel is kc x 4 (k-major). The 16 C
// accumulators live in locals across the whole k loop, so C traffic is
// one load and one store per element per panel instead of per k step.
//
//fedtripvet:hotpath
func kern4x4(kc int, a, b []float64, r0, r1, r2, r3 []float64) {
	r0 = r0[:gemmNR]
	r1 = r1[:gemmNR]
	r2 = r2[:gemmNR]
	r3 = r3[:gemmNR]
	c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
	c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
	c20, c21, c22, c23 := r2[0], r2[1], r2[2], r2[3]
	c30, c31, c32, c33 := r3[0], r3[1], r3[2], r3[3]
	a = a[:gemmMR*kc]
	b = b[:gemmNR*kc]
	for p := 0; p < kc; p++ {
		bp := b[gemmNR*p : gemmNR*p+gemmNR : gemmNR*p+gemmNR]
		ap := a[gemmMR*p : gemmMR*p+gemmMR : gemmMR*p+gemmMR]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		a0, a1 := ap[0], ap[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a2, a3 := ap[2], ap[3]
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
}

// kern4xN updates a 4-row tile with 1..3 live columns (the n remainder):
// one accumulator column per live column, no padded-lane compute.
//
//fedtripvet:hotpath
func kern4xN(kc, cols int, a, b []float64, cd []float64, off, ldc int) {
	a = a[:gemmMR*kc]
	b = b[:gemmNR*kc]
	for j := 0; j < cols; j++ {
		c0, c1, c2, c3 := cd[off+j], cd[off+ldc+j], cd[off+2*ldc+j], cd[off+3*ldc+j]
		for p := 0; p < kc; p++ {
			ap := a[gemmMR*p : gemmMR*p+gemmMR : gemmMR*p+gemmMR]
			bv := b[gemmNR*p+j]
			c0 += ap[0] * bv
			c1 += ap[1] * bv
			c2 += ap[2] * bv
			c3 += ap[3] * bv
		}
		cd[off+j], cd[off+ldc+j], cd[off+2*ldc+j], cd[off+3*ldc+j] = c0, c1, c2, c3
	}
}

// kernMx4 updates a 4-column tile with 1..3 live rows (the m remainder).
// r0 addresses the first row (4 valid elements), rlast the last live row;
// intermediate rows are reached through ldc.
//
//fedtripvet:hotpath
func kernMx4(kc, rows int, a, b []float64, r0, rlast []float64, ldc int) {
	a = a[:gemmMR*kc]
	b = b[:gemmNR*kc]
	switch rows {
	case 1:
		c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
		for p := 0; p < kc; p++ {
			bp := b[gemmNR*p : gemmNR*p+gemmNR : gemmNR*p+gemmNR]
			a0 := a[gemmMR*p]
			c00 += a0 * bp[0]
			c01 += a0 * bp[1]
			c02 += a0 * bp[2]
			c03 += a0 * bp[3]
		}
		r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	case 2:
		r1 := rlast[:gemmNR]
		c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
		c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
		for p := 0; p < kc; p++ {
			bp := b[gemmNR*p : gemmNR*p+gemmNR : gemmNR*p+gemmNR]
			b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
			a0, a1 := a[gemmMR*p], a[gemmMR*p+1]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
		}
		r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	default: // 3 rows
		r1 := r0[ldc : ldc+gemmNR]
		r2 := rlast[:gemmNR]
		c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
		c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
		c20, c21, c22, c23 := r2[0], r2[1], r2[2], r2[3]
		for p := 0; p < kc; p++ {
			bp := b[gemmNR*p : gemmNR*p+gemmNR : gemmNR*p+gemmNR]
			b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
			a0, a1, a2 := a[gemmMR*p], a[gemmMR*p+1], a[gemmMR*p+2]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
		}
		r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
		r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	}
}
