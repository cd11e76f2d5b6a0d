// Leaf-mask pair scoring.
//
// The augmented optimizer scores every unmeasured candidate against every
// measured source, so its queries are a cross product: row (s, d) is
// srcs[s] ‖ dsts[d]. Walking each tree once per row costs n·R·depth
// data-dependent branches per tree. PredictPairs exploits the product
// structure instead, in the style of QuickScorer (Lucchese et al., SIGIR
// 2015): growth numbers each tree's leaves in preorder and records, per
// split node, the leaf range [lo, mid) of its left subtree. A query that
// goes right at a node cannot exit in that range, and the query's exit
// leaf is the lowest-numbered leaf no split it goes right at rules out —
// every leaf before it lies in the left subtree of an ancestor the query
// went right at. Each split tests one column, which lives in either the
// source half or the destination half, so the ruled-out set of a pair is
// the union of what its source's splits rule out and what its
// destination's splits rule out. One bitmask per source and one per
// candidate, ANDed, give every pair's exit leaf by a count of trailing
// zeros.
//
// The sums are bit-identical to per-row Predict: each pair gets the same
// leaf value from every tree, added in ensemble order starting from zero,
// divided by the same tree count.
package forest

import (
	"fmt"
	"math/bits"

	"repro/internal/parallel"
)

// pairBlock is the number of candidates one PredictPairs work item
// scores: enough to amortize a tree's split list, small enough that the
// block's accumulators stay in L1.
const pairBlock = 16

// PredictPairs returns the ensemble mean at every pair row srcs[s] ‖ dsts[d],
// stored at out[d*len(srcs)+s]. Every source must have the same length,
// every destination the same length, and the two must add up to the
// feature dimensionality. Results are bit-identical to Predict on the
// concatenated rows at any Parallelism; work is split by blocks of
// destinations. When out has enough capacity it is reused as the result
// buffer.
func (r *Regressor) PredictPairs(srcs, dsts [][]float64, out []float64) ([]float64, error) {
	nSrc, nDst := len(srcs), len(dsts)
	if nSrc == 0 || nDst == 0 {
		return out[:0], nil
	}
	srcWidth, dstWidth := len(srcs[0]), len(dsts[0])
	if srcWidth+dstWidth != r.numDims {
		return nil, fmt.Errorf("forest: pair halves %d+%d wide, want %d", srcWidth, dstWidth, r.numDims)
	}
	for i, x := range srcs {
		if len(x) != srcWidth {
			return nil, fmt.Errorf("forest: source %d width %d, want %d", i, len(x), srcWidth)
		}
	}
	for i, x := range dsts {
		if len(x) != dstWidth {
			return nil, fmt.Errorf("forest: destination %d width %d, want %d", i, len(x), dstWidth)
		}
	}
	if cap(out) >= nSrc*nDst {
		out = out[:nSrc*nDst]
	} else {
		out = make([]float64, nSrc*nDst)
	}
	r.scorePairs(srcs, dsts, out)
	return out, nil
}

// scorePairs fills out through leaf masks: every source's masks first
// (one slab, parallel over trees), then blocks of destinations, each
// walking the trees in ensemble order so every pair's sum adds its leaf
// values in the order Predict does.
func (r *Regressor) scorePairs(srcs, dsts [][]float64, out []float64) {
	nSrc, nDst := len(srcs), len(dsts)
	srcWidth := len(srcs[0])
	srcCols, dstCols := columnMajor(srcs), columnMajor(dsts)

	// Tree t's source masks, words[t] per source, start at off[t].
	words := make([]int, len(r.trees))
	off := make([]int, len(r.trees)+1)
	maxWords := 0
	for t := range r.trees {
		words[t] = (len(r.trees[t].leafValue) + 63) >> 6
		off[t+1] = off[t] + nSrc*words[t]
		maxWords = max(maxWords, words[t])
	}
	srcMasks := make([]uint64, off[len(r.trees)])
	parallel.Do(len(r.trees), r.parallelism, func(t int) {
		leafMasks(srcMasks[off[t]:off[t+1]], nSrc, &r.trees[t], 0, srcWidth, srcCols, nSrc, 0)
	})

	blocks := (nDst + pairBlock - 1) / pairBlock
	parallel.DoWithScratch(blocks, r.parallelism,
		func() []uint64 { return make([]uint64, pairBlock*maxWords) },
		func(b int, scratch []uint64) {
			d0, d1 := b*pairBlock, min((b+1)*pairBlock, nDst)
			nb := d1 - d0
			acc := out[d0*nSrc : d1*nSrc]
			clear(acc)
			for t := range r.trees {
				tr := &r.trees[t]
				dm := scratch[:nb*words[t]]
				leafMasks(dm, nb, tr, srcWidth, r.numDims, dstCols, nDst, d0)
				sm := srcMasks[off[t]:off[t+1]]
				for d := range nb {
					row := acc[d*nSrc : (d+1)*nSrc]
					if words[t] == 1 {
						w := dm[d]
						for s := range row {
							row[s] += tr.leafValue[bits.TrailingZeros64(sm[s]&w)]
						}
						continue
					}
					for s := range row {
						row[s] += tr.leafValue[exitLeaf(sm[s:], nSrc, dm[d:], nb)]
					}
				}
			}
			n := float64(len(r.trees))
			for i := range acc {
				acc[i] /= n
			}
		})
}

// columnMajor copies equal-length rows into one column-major slab:
// column f of row q lands at f*len(rows)+q.
func columnMajor(rows [][]float64) []float64 {
	n := len(rows)
	cols := make([]float64, n*len(rows[0]))
	for q, row := range rows {
		for f, v := range row {
			cols[f*n+q] = v
		}
	}
	return cols
}

// leafMasks fills the masks of a run of n queries with the leaves each
// can still exit at: all ones, minus the left-subtree range of every
// split of tr the query goes right at. The queries are one half of their
// rows, features [fLo, fHi), held column-major in cols (column f-fLo of
// query q at (f-fLo)*stride+q); the run starts at query q0. masks is
// word-major — word w of query q sits at w*n+q — so every split updates
// contiguous runs. The comparison is eval's, so a NaN goes right; it is
// a coin flip, so it selects the clear mask without a branch.
func leafMasks(masks []uint64, n int, tr *tree, fLo, fHi int, cols []float64, stride, q0 int) {
	for i := range masks {
		masks[i] = ^uint64(0)
	}
	for f := fLo; f < fHi; f++ {
		start := (f-fLo)*stride + q0
		col := cols[start : start+n]
		for _, sp := range tr.splits[tr.splitStart[f]:tr.splitStart[f+1]] {
			lo, hi, thr := int(sp.lo), int(sp.mid), sp.threshold
			for w := lo >> 6; w <= (hi-1)>>6; w++ {
				clr := rangeBits(w, lo, hi)
				plane := masks[w*n : (w+1)*n]
				for q, x := range col {
					var right uint64
					if !(x <= thr) {
						right = ^uint64(0)
					}
					plane[q] &^= right & clr
				}
			}
		}
	}
}

// rangeBits returns the bits of mask word w that fall in [lo, hi).
func rangeBits(w, lo, hi int) uint64 {
	b := ^uint64(0)
	if w == lo>>6 {
		b <<= uint(lo & 63)
	}
	if w == (hi-1)>>6 {
		b &= ^uint64(0) >> uint(63-(hi-1)&63)
	}
	return b
}

// exitLeaf returns the lowest leaf set in both word-major masks, a's
// words strided by na and b's by nb. The exit leaf is never ruled out, so
// some word is non-zero.
func exitLeaf(a []uint64, na int, b []uint64, nb int) int {
	for w := 0; ; w++ {
		if v := a[w*na] & b[w*nb]; v != 0 {
			return w<<6 + bits.TrailingZeros64(v)
		}
	}
}
