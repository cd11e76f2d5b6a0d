// Package forest implements the Extra-Trees (extremely randomized trees)
// regression ensemble that Arrow uses as its surrogate model instead of a
// Gaussian process (Section IV-B, "Surrogate Model").
//
// Extra-Trees differ from random forests in two ways: each tree is grown on
// the full training set (no bootstrap) and split thresholds are drawn
// uniformly at random between the observed feature minimum and maximum,
// with the best of K random (feature, threshold) candidates chosen by
// variance reduction. This makes the model robust on the small, highly
// non-smooth response surfaces that break GP kernels — precisely the
// fragility the paper targets.
//
// The implementation is built for the refit-every-iteration loop the
// optimizer runs it in: trees grow concurrently on a worker pool (one
// deterministically derived seed per tree, so the fitted ensemble is
// bit-identical at any Parallelism setting), the training matrix is laid
// out column-major so split scoring scans contiguous memory, and a node
// scores its K candidate splits in two fused passes over its rows — every
// candidate's range, then every candidate's left-child sums — rather than
// two loops per candidate. Trees grow in per-worker scratch and are then
// copied into index-based arrays of their exact size instead of
// pointer-linked nodes.
//
// Predict walks each tree once for one query row. The optimizer's real
// workload is a cross product — every candidate against every measured
// source — and PredictPairs scores it without walking a tree per row:
// growth numbers each tree's leaves and records every split's leaf range,
// so one leaf bitmask per source and one per candidate, ANDed, name every
// pair's leaf (see pairs.go). Both return bit-identical results.
package forest

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
)

// ErrNoData is returned when fitting with no samples.
var ErrNoData = errors.New("forest: no training data")

// Config controls ensemble growth.
type Config struct {
	// NumTrees is the ensemble size. Zero means DefaultNumTrees.
	NumTrees int
	// MinSamplesSplit is the smallest node that may be split further.
	// Zero means DefaultMinSamplesSplit.
	MinSamplesSplit int
	// MaxFeatures is K, the number of random split candidates per node.
	// Zero means round(sqrt(d)) where d is the feature count.
	MaxFeatures int
	// MaxDepth bounds tree depth. Zero means unbounded.
	MaxDepth int
	// SampleRate is the per-tree unit keep probability used by FitSampled
	// and Refit: each tree draws a deterministic Bernoulli(SampleRate)
	// subset of the observation units and trains only on rows whose units
	// it kept, which is what makes delta-aware refits possible (a new
	// unit's rows touch only the trees that keep that unit). Zero or one
	// means no subsampling — every tree sees every row, and Fit ignores
	// the field entirely.
	SampleRate float64
	// Seed seeds the (deterministic) tree randomization. Each tree draws
	// its own RNG seed from this value, so the fitted ensemble does not
	// depend on how trees are scheduled across workers.
	Seed int64
	// Parallelism bounds the worker pool growing trees and answering
	// batched predictions. Zero means runtime.GOMAXPROCS(0); one forces
	// fully sequential operation. The fitted ensemble and every
	// prediction are bit-identical at any setting.
	Parallelism int
}

// Defaults for Config's zero values.
const (
	DefaultNumTrees        = 100
	DefaultMinSamplesSplit = 2
)

// Regressor is a fitted Extra-Trees ensemble.
type Regressor struct {
	trees       []tree
	numDims     int
	parallelism int

	// state carries the training snapshot and per-tree row-set
	// fingerprints of a FitSampled ensemble, enabling Refit. Nil for
	// plain Fit ensembles.
	state *sampleState
}

// tree is one fitted extra-tree, flattened into index-based parallel
// arrays (struct-of-arrays). Nodes are numbered in preorder from the root
// at 0. Node i is a split on feature[i] at threshold[i] whose left child
// is node i+1 — preorder puts it there — and right child right[i], or a
// leaf when feature[i] is leafMarker — leaves store their mean target in
// threshold[i]. The layout keeps eval pointer-free and cache-friendly.
//
// Growth also records the leaf-mask layout PredictPairs scores with:
// leafValue holds the leaves' values numbered in preorder, and splits
// lists every split node with the leaf range of its left subtree,
// bucketed by feature: splits[splitStart[f]:splitStart[f+1]] test
// feature f, so one query half's splits form a contiguous run.
type tree struct {
	feature   []int32
	threshold []float64
	right     []int32

	leafValue  []float64
	splits     []split
	splitStart []int32
}

// split is one split node in leaf-mask form: a query whose value for the
// split's feature is <= threshold goes left; otherwise it cannot reach
// the leaves [lo, mid) of the node's left subtree.
type split struct {
	lo, mid   int32
	threshold float64
}

// leafMarker flags a leaf in tree.feature.
const leafMarker = int32(-1)

// add appends a zeroed node and returns its index.
func (t *tree) add() int32 {
	t.feature = append(t.feature, 0)
	t.threshold = append(t.threshold, 0)
	t.right = append(t.right, 0)
	return int32(len(t.feature) - 1)
}

// setLeaf turns node i into a leaf predicting value and numbers it as
// the next leaf in preorder.
func (t *tree) setLeaf(i int32, value float64) {
	t.feature[i] = leafMarker
	t.threshold[i] = value
	t.leafValue = append(t.leafValue, value)
}

func (t *tree) eval(x []float64) float64 {
	i := int32(0)
	for {
		f := t.feature[i]
		if f < 0 {
			return t.threshold[i]
		}
		if x[f] <= t.threshold[i] {
			i++
		} else {
			i = t.right[i]
		}
	}
}

// treeSeeds derives one independent RNG seed per tree from the ensemble
// seed with a splitmix64 sequence. The derivation is position-based, so
// tree t's randomness is the same no matter which worker grows it or in
// what order — the determinism contract behind Config.Parallelism.
func treeSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	s := uint64(seed)
	for i := range out {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = int64(z ^ (z >> 31))
	}
	return out
}

// validateTraining checks shape and finiteness of a training set and
// returns the feature dimensionality.
func validateTraining(xs [][]float64, ys []float64) (int, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("forest: %d rows but %d targets", len(xs), len(ys))
	}
	dims := len(xs[0])
	if dims == 0 {
		return 0, errors.New("forest: zero-dimensional features")
	}
	for i, row := range xs {
		if len(row) != dims {
			return 0, fmt.Errorf("forest: ragged row %d (len %d, want %d)", i, len(row), dims)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("forest: non-finite feature at row %d col %d: %v", i, j, v)
			}
		}
	}
	for i, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return 0, fmt.Errorf("forest: non-finite target at row %d: %v", i, y)
		}
	}
	return dims, nil
}

// resolveConfig applies Config's documented defaults for the given
// feature dimensionality. Refit compares resolved configs, so two configs
// that mean the same ensemble resolve equal.
func resolveConfig(cfg Config, dims int) (Config, error) {
	if cfg.NumTrees == 0 {
		cfg.NumTrees = DefaultNumTrees
	}
	if cfg.MinSamplesSplit == 0 {
		cfg.MinSamplesSplit = DefaultMinSamplesSplit
	}
	if cfg.MinSamplesSplit < 2 {
		return cfg, fmt.Errorf("forest: MinSamplesSplit %d < 2", cfg.MinSamplesSplit)
	}
	if cfg.MaxFeatures == 0 {
		cfg.MaxFeatures = int(math.Round(math.Sqrt(float64(dims))))
		if cfg.MaxFeatures < 1 {
			cfg.MaxFeatures = 1
		}
	}
	if cfg.MaxFeatures > dims {
		cfg.MaxFeatures = dims
	}
	if math.IsNaN(cfg.SampleRate) || cfg.SampleRate < 0 || cfg.SampleRate > 1 {
		return cfg, fmt.Errorf("forest: SampleRate %v outside [0,1]", cfg.SampleRate)
	}
	return cfg, nil
}

// buildColumns copies xs into a column-major matrix: cols[f*n+i] =
// xs[i][f]. Split scoring scans one feature over many rows, so this turns
// the hot loops into contiguous walks instead of row-pointer chases.
func buildColumns(xs [][]float64, dims int) []float64 {
	n := len(xs)
	cols := make([]float64, n*dims)
	for i, row := range xs {
		for f, v := range row {
			cols[f*n+i] = v
		}
	}
	return cols
}

// growerPool recycles growth state across fits. A grower keeps the
// scratch of the largest training set it has served, so a refit chain
// stops allocating scratch once its history stops growing.
var growerPool sync.Pool

// growEach runs grow(t, g) for every tree t of the ensemble over at most
// cfg.Parallelism workers, each with its own grower over the shared
// training data. The growers are pooled: taken when a worker starts and
// returned, without the training data, once every tree is done.
func growEach(cfg Config, cols, ys []float64, n, dims int, grow func(t int, g *grower)) {
	var mu sync.Mutex
	var used []*grower
	parallel.DoWithScratch(cfg.NumTrees, cfg.Parallelism,
		func() *grower {
			g, _ := growerPool.Get().(*grower)
			if g == nil {
				g = new(grower)
			}
			g.reset(cfg, cols, ys, n, dims)
			mu.Lock()
			used = append(used, g)
			mu.Unlock()
			return g
		}, grow)
	for _, g := range used {
		g.cols, g.ys = nil, nil
		growerPool.Put(g)
	}
}

// reset points the grower at a fit's training data and sizes its
// scratch for it, reusing what the grower already holds.
func (g *grower) reset(cfg Config, cols, ys []float64, n, dims int) {
	g.cols, g.ys, g.n, g.dims = cols, ys, n, dims
	g.minSplit, g.maxFeatures, g.maxDepth = cfg.MinSamplesSplit, cfg.MaxFeatures, cfg.MaxDepth
	g.indices = resized(g.indices, n)
	g.aux = resized(g.aux, n)
	g.featOrder = resized(g.featOrder, dims)
	// A binary tree over n rows has at most 2n-1 nodes, so the scratch
	// tree never regrows.
	g.t.feature = resized(g.t.feature, 2*n-1)
	g.t.threshold = resized(g.t.threshold, 2*n-1)
	g.t.right = resized(g.t.right, 2*n-1)
	g.t.leafValue = resized(g.t.leafValue, n)
	g.splits = resized(g.splits, n)
	g.splitFeat = resized(g.splitFeat, n)
	// Node-scan slots: K candidates rounded up to whole groups, so the
	// spare slots of a short last group have room for their results.
	slots := (cfg.MaxFeatures + scanGroup - 1) / scanGroup * scanGroup
	g.live = resized(g.live, slots)
	g.thr = resized(g.thr, slots)
	g.lo = resized(g.lo, slots)
	g.hi = resized(g.hi, slots)
	g.nL = resized(g.nL, slots)
	g.sumL = resized(g.sumL, slots)
	g.sumSqL = resized(g.sumSqL, slots)
}

// resized returns s with length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Fit grows the ensemble on feature rows xs and targets ys. Every tree
// trains on the full training set (the Extra-Trees prescription);
// SampleRate is ignored. Use FitSampled/Refit for the delta-aware
// subsampled ensemble.
func Fit(cfg Config, xs [][]float64, ys []float64) (*Regressor, error) {
	dims, err := validateTraining(xs, ys)
	if err != nil {
		return nil, err
	}
	cfg, err = resolveConfig(cfg, dims)
	if err != nil {
		return nil, err
	}

	n := len(xs)
	cols := buildColumns(xs, dims)
	ysCopy := append([]float64(nil), ys...)

	seeds := treeSeeds(cfg.Seed, cfg.NumTrees)
	trees := make([]tree, cfg.NumTrees)
	growEach(cfg, cols, ysCopy, n, dims, func(t int, g *grower) {
		g.growTree(&trees[t], seeds[t])
	})
	return &Regressor{trees: trees, numDims: dims, parallelism: cfg.Parallelism}, nil
}

// grower holds one worker's reusable growth state. The training data
// (cols, ys) is shared read-only across workers; the scratch buffers are
// worker-private and reused for every tree the worker grows, and across
// fits through growerPool.
type grower struct {
	cols []float64 // column-major features, shared read-only
	ys   []float64 // targets, shared read-only
	n    int
	dims int

	minSplit    int
	maxFeatures int
	maxDepth    int

	rng splitmix // current tree's RNG
	// t is the tree under construction. Its arrays are scratch reused
	// across trees; finish copies each grown tree out at its exact size.
	t tree

	indices   []int   // row indices, partitioned in place during growth
	aux       []int   // stable-partition staging buffer
	featOrder []int   // partial Fisher-Yates scratch for feature sampling
	splits    []split // the current tree's split nodes in growth order,
	splitFeat []int32 // with their features
	keep      []uint8 // per-unit membership of the current tree's sample

	// Node-scan scratch, one entry per candidate slot (see bestSplit):
	// every candidate's range, then the non-constant candidates with
	// their thresholds and left-child sums.
	lo, hi           []float64
	live             []int
	thr              []float64
	nL, sumL, sumSqL []float64
}

// growTree grows one tree over the full training set into out, its RNG
// seeded with seed. Scratch state is reset first so the result depends
// only on the data and the seed, never on which trees this worker grew
// before.
func (g *grower) growTree(out *tree, seed int64) {
	for i := range g.indices {
		g.indices[i] = i
	}
	g.growPrepared(out, seed, g.n)
}

// growPrepared grows a tree over the first n entries of g.indices, which
// the caller has just filled. The nodes grow in the worker's scratch
// tree; finish then copies them into storage sized to the tree.
func (g *grower) growPrepared(out *tree, seed int64, n int) {
	for i := range g.featOrder {
		g.featOrder[i] = i
	}
	t := &g.t
	t.feature, t.threshold, t.right = t.feature[:0], t.threshold[:0], t.right[:0]
	t.leafValue = t.leafValue[:0]
	g.splits, g.splitFeat = g.splits[:0], g.splitFeat[:0]
	g.rng = splitmix{state: uint64(seed)}
	g.grow(0, n, 0)
	g.finish(out)
}

// finish copies the grown scratch tree into out at its exact size: one
// int32 slab holds feature, right and the split-bucket offsets, one
// float64 slab threshold and the leaf values, and the splits are bucketed
// by feature with a stable counting sort (d is small).
func (g *grower) finish(out *tree) {
	s := &g.t
	nodes, leaves := len(s.feature), len(s.leafValue)
	ints := make([]int32, 2*nodes+g.dims+1)
	floats := make([]float64, nodes+leaves)
	out.feature = ints[:nodes:nodes]
	out.right = ints[nodes : 2*nodes : 2*nodes]
	out.splitStart = ints[2*nodes:]
	out.threshold = floats[:nodes:nodes]
	out.leafValue = floats[nodes:]
	copy(out.feature, s.feature)
	copy(out.right, s.right)
	copy(out.threshold, s.threshold)
	copy(out.leafValue, s.leafValue)

	start := out.splitStart
	for _, f := range g.splitFeat {
		start[f+1]++
	}
	for f := 1; f < len(start); f++ {
		start[f] += start[f-1]
	}
	out.splits = make([]split, len(g.splits))
	for i, f := range g.splitFeat {
		// start[f] is bucket f's fill cursor here, so it ends at bucket
		// f+1's start; the shift below restores the offsets.
		out.splits[start[f]] = g.splits[i]
		start[f]++
	}
	copy(start[1:], start[:g.dims])
	start[0] = 0
}

// grow builds the subtree over g.indices[lo:hi] and returns its node
// index. The index segment is partitioned in place as splits are chosen.
func (g *grower) grow(lo, hi, depth int) int32 {
	t := &g.t
	idx := t.add()
	seg := g.indices[lo:hi]
	if len(seg) < g.minSplit || (g.maxDepth > 0 && depth >= g.maxDepth) || g.constantTargets(seg) {
		t.setLeaf(idx, g.meanTarget(seg))
		return idx
	}

	// Node target totals, computed once: each candidate split scores by
	// accumulating its left child only and deriving the right child as
	// (total - left). Halves the scoring flops versus two-sided sums.
	// total is also the sum meanTarget would compute, in the same order.
	var total, totalSq float64
	for _, i := range seg {
		y := g.ys[i]
		total += y
		totalSq += y * y
	}
	mean := total / float64(len(seg))

	feature, threshold := g.bestSplit(seg, total, totalSq)
	if feature < 0 {
		t.setLeaf(idx, mean)
		return idx
	}
	nL := g.partition(lo, hi, feature, threshold)
	if nL == 0 || nL == len(seg) {
		t.setLeaf(idx, mean)
		return idx
	}
	leafLo := int32(len(t.leafValue))
	g.grow(lo, lo+nL, depth+1) // node idx+1
	leafMid := int32(len(t.leafValue))
	right := g.grow(lo+nL, hi, depth+1)
	t.feature[idx] = int32(feature)
	t.threshold[idx] = threshold
	t.right[idx] = right
	g.splits = append(g.splits, split{lo: leafLo, mid: leafMid, threshold: threshold})
	g.splitFeat = append(g.splitFeat, int32(feature))
	return idx
}

// scanGroup is the number of candidate features one pass over a node's
// rows serves. Four keeps a pass's accumulators close to the register
// file; larger K takes more passes, and a short last group is padded.
const scanGroup = 4

// bestSplit draws the node's K candidate splits and returns the best
// (feature, threshold) by variance reduction, or feature -1 when every
// candidate is constant over the node or leaves a side empty.
//
// The candidates are scanned in groups of scanGroup slots, a group's
// slots sharing one pass over the rows: one pass per group finds every
// candidate's range, then thresholds are drawn, then one pass per group
// accumulates every candidate's left-child sums. A short last group's
// spare slots repeat the list's last feature: they are scanned, and
// their results, stored past the live slots, are never read. Range
// passes draw nothing, thresholds are drawn in candidate order for the
// non-constant candidates, every candidate's sums add its rows in row
// order, and the best is the first candidate with the highest score: the
// RNG stream and every sum are those of scoring one candidate at a time,
// so the tree is too.
func (g *grower) bestSplit(seg []int, total, totalSq float64) (int, float64) {
	cand := g.sampleFeatures()
	g.scanRanges(cand, seg)

	live, thr := g.live[:0], g.thr[:0]
	for c, f := range cand {
		lo, hi := g.lo[c], g.hi[c]
		if hi <= lo {
			continue // constant feature in this node
		}
		live = append(live, f)
		thr = append(thr, lo+g.rng.float64()*(hi-lo))
	}
	numLive := len(live)
	if numLive == 0 {
		return -1, 0
	}
	g.scanSums(live, thr, seg)

	bestScore := math.Inf(-1)
	bestFeature, bestThreshold := -1, 0.0
	n := float64(len(seg))
	for c := range numLive {
		nL, sumL, sumSqL := g.nL[c], g.sumL[c], g.sumSqL[c]
		nR := n - nL
		if nL == 0 || nR == 0 {
			continue
		}
		sumR := total - sumL
		sumSqR := totalSq - sumSqL
		// The CART variance-reduction criterion, minus the parent
		// variance (constant across candidates) and the 1/n weighting:
		// maximizing it picks the same split as the full expression.
		score := -((sumSqL - sumL*sumL/nL) + (sumSqR - sumR*sumR/nR))
		if score > bestScore {
			bestScore = score
			bestFeature = live[c]
			bestThreshold = thr[c]
		}
	}
	return bestFeature, bestThreshold
}

// scanRanges sets g.lo[s] and g.hi[s] to the minimum and maximum of
// feature feats[s] over the node's rows, one pass per group of slots.
//
// The builtin float min and max are NaN- and signed-zero-safe: each
// compiles to a MINSD, MINSD, POR sequence (max adds sign flips around
// it) whose latency sits on the loop-carried chain. Training data is
// finite, so the scan compares order keys instead — integers whose order
// is the floats' order with -0 below +0 — and picks the same values with
// integer compares and conditional moves.
func (g *grower) scanRanges(feats []int, seg []int) {
	n, last := g.n, len(feats)-1
	for s := 0; s <= last; s += scanGroup {
		c0 := g.cols[feats[s]*n:][:n]
		c1 := g.cols[feats[min(s+1, last)]*n:][:n]
		c2 := g.cols[feats[min(s+2, last)]*n:][:n]
		c3 := g.cols[feats[min(s+3, last)]*n:][:n]
		i := seg[0]
		lo0, lo1, lo2, lo3 := orderKey(c0[i]), orderKey(c1[i]), orderKey(c2[i]), orderKey(c3[i])
		hi0, hi1, hi2, hi3 := lo0, lo1, lo2, lo3
		for _, i := range seg[1:] {
			k0, k1, k2, k3 := orderKey(c0[i]), orderKey(c1[i]), orderKey(c2[i]), orderKey(c3[i])
			lo0, hi0 = min(lo0, k0), max(hi0, k0)
			lo1, hi1 = min(lo1, k1), max(hi1, k1)
			lo2, hi2 = min(lo2, k2), max(hi2, k2)
			lo3, hi3 = min(lo3, k3), max(hi3, k3)
		}
		g.lo[s], g.hi[s] = keyValue(lo0), keyValue(hi0)
		g.lo[s+1], g.hi[s+1] = keyValue(lo1), keyValue(hi1)
		g.lo[s+2], g.hi[s+2] = keyValue(lo2), keyValue(hi2)
		g.lo[s+3], g.hi[s+3] = keyValue(lo3), keyValue(hi3)
	}
}

// orderKey maps a non-NaN float to an int64 with the same order, -0
// ordered just below +0: a non-negative float's bits already order as
// integers, and flipping all but the sign bit of a negative one reverses
// its magnitude order. The map is its own inverse (keyValue).
func orderKey(v float64) int64 {
	k := int64(math.Float64bits(v))
	return k ^ int64(uint64(k>>63)>>1)
}

// keyValue inverts orderKey.
func keyValue(k int64) float64 {
	return math.Float64frombits(uint64(k ^ int64(uint64(k>>63)>>1)))
}

// scanSums accumulates, for every slot s, the left child of the split
// of feature feats[s] at thr[s] over the node's rows: its row count and
// target sum and sum of squares, into g.nL, g.sumL and g.sumSqL, one pass
// per group of slots. The sums are branchless: copysign turns the
// comparison into an exact 0/1 mask, so there is no data-dependent
// branch to mispredict (the comparison is a coin flip on random
// thresholds) and the summation order — hence the result — is identical
// to the naive masked loop.
func (g *grower) scanSums(feats []int, thr []float64, seg []int) {
	n, last := g.n, len(feats)-1
	ys := g.ys
	for s := 0; s <= last; s += scanGroup {
		s1, s2, s3 := min(s+1, last), min(s+2, last), min(s+3, last)
		c0 := g.cols[feats[s]*n:][:n]
		c1 := g.cols[feats[s1]*n:][:n]
		c2 := g.cols[feats[s2]*n:][:n]
		c3 := g.cols[feats[s3]*n:][:n]
		t0, t1, t2, t3 := thr[s], thr[s1], thr[s2], thr[s3]
		var n0, sum0, sq0, n1, sum1, sq1, n2, sum2, sq2, n3, sum3, sq3 float64
		for _, i := range seg {
			y := ys[i]
			m := 0.5 + math.Copysign(0.5, t0-c0[i]) // 1 if c0[i] <= t0, else 0
			n0 += m
			m *= y
			sum0 += m
			sq0 += m * y
			m = 0.5 + math.Copysign(0.5, t1-c1[i])
			n1 += m
			m *= y
			sum1 += m
			sq1 += m * y
			m = 0.5 + math.Copysign(0.5, t2-c2[i])
			n2 += m
			m *= y
			sum2 += m
			sq2 += m * y
			m = 0.5 + math.Copysign(0.5, t3-c3[i])
			n3 += m
			m *= y
			sum3 += m
			sq3 += m * y
		}
		g.nL[s], g.sumL[s], g.sumSqL[s] = n0, sum0, sq0
		g.nL[s+1], g.sumL[s+1], g.sumSqL[s+1] = n1, sum1, sq1
		g.nL[s+2], g.sumL[s+2], g.sumSqL[s+2] = n2, sum2, sq2
		g.nL[s+3], g.sumL[s+3], g.sumSqL[s+3] = n3, sum3, sq3
	}
}

// partition stably partitions g.indices[lo:hi] into rows with
// feature <= threshold followed by the rest, via the worker's staging
// buffer, and returns the left-side count. Stability keeps the row order
// inside each child deterministic. Every row is written to both sides
// and only the matching side's cursor advances, so the loop has no
// data-dependent branch.
func (g *grower) partition(lo, hi, feature int, threshold float64) int {
	col := g.cols[feature*g.n : (feature+1)*g.n]
	seg := g.indices[lo:hi]
	aux := g.aux[:len(seg)]
	nL, nR := 0, 0
	for _, i := range seg {
		left := 0
		if col[i] <= threshold {
			left = 1
		}
		seg[nL] = i
		aux[nR] = i
		nL += left
		nR += 1 - left
	}
	copy(seg[nL:], aux[:nR])
	return nL
}

// sampleFeatures draws maxFeatures distinct features. When K < d it runs
// a partial Fisher-Yates over the worker's persistent permutation
// scratch — K swaps, no per-node allocation. The candidate order is
// whatever the shuffle produced; it is deterministic given the tree
// seed, which is all the split selection needs.
func (g *grower) sampleFeatures() []int {
	k, d := g.maxFeatures, g.dims
	order := g.featOrder
	if k >= d {
		// featOrder is permuted only by the k < d path, and k is fixed
		// per fit, so here it is still the identity.
		return order
	}
	for j := 0; j < k; j++ {
		r := j + g.rng.intn(d-j)
		order[j], order[r] = order[r], order[j]
	}
	return order[:k]
}

func (g *grower) constantTargets(seg []int) bool {
	first := g.ys[seg[0]]
	for _, i := range seg[1:] {
		if g.ys[i] != first {
			return false
		}
	}
	return true
}

func (g *grower) meanTarget(seg []int) float64 {
	sum := 0.0
	for _, i := range seg {
		sum += g.ys[i]
	}
	return sum / float64(len(seg))
}

// Predict returns the ensemble mean at x.
func (r *Regressor) Predict(x []float64) (float64, error) {
	mean, _, err := r.PredictWithVariance(x)
	return mean, err
}

// PredictWithVariance returns the mean and variance of the per-tree
// predictions at x. The variance is the ensemble's (epistemic) disagreement
// and plays the role the GP posterior variance plays for Naive BO.
func (r *Regressor) PredictWithVariance(x []float64) (mean, variance float64, err error) {
	if len(x) != r.numDims {
		return 0, 0, fmt.Errorf("forest: query dim %d, want %d", len(x), r.numDims)
	}
	sum, sumSq := 0.0, 0.0
	for i := range r.trees {
		v := r.trees[i].eval(x)
		sum += v
		sumSq += v * v
	}
	n := float64(len(r.trees))
	mean = sum / n
	variance = sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance, nil
}

// NumTrees returns the ensemble size.
func (r *Regressor) NumTrees() int { return len(r.trees) }

// FeatureImportance returns, per feature, the fraction of internal nodes
// across the ensemble that split on it. It is a cheap diagnostic used by
// the study harness to report which low-level metrics the surrogate leans
// on (Section IV-A's feature-selection discussion). The flat node layout
// makes this a linear scan — no tree walk.
func (r *Regressor) FeatureImportance() []float64 {
	counts := make([]float64, r.numDims)
	total := 0.0
	for t := range r.trees {
		for _, f := range r.trees[t].feature {
			if f >= 0 {
				counts[f]++
				total++
			}
		}
	}
	if total > 0 {
		for i := range counts {
			counts[i] /= total
		}
	}
	return counts
}
