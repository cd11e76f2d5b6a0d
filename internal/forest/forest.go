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
// out column-major so split scoring scans contiguous memory, node
// partitions reuse per-worker scratch buffers, and fitted trees are
// flattened into index-based arrays instead of pointer-linked nodes.
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

// newGrower assembles a worker's growth state over the shared training
// data.
func newGrower(cfg Config, cols, ys []float64, n, dims int) *grower {
	return &grower{
		cols:        cols,
		ys:          ys,
		n:           n,
		dims:        dims,
		minSplit:    cfg.MinSamplesSplit,
		maxFeatures: cfg.MaxFeatures,
		maxDepth:    cfg.MaxDepth,
		indices:     make([]int, n),
		aux:         make([]int, n),
		featOrder:   make([]int, dims),
		bucketFill:  make([]int32, dims),
	}
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
	parallel.DoWithScratch(cfg.NumTrees, cfg.Parallelism,
		func() *grower { return newGrower(cfg, cols, ysCopy, n, dims) },
		func(t int, g *grower) {
			g.growTree(&trees[t], &splitmix{state: uint64(seeds[t])})
		})
	return &Regressor{trees: trees, numDims: dims, parallelism: cfg.Parallelism}, nil
}

// grower holds one worker's reusable growth state. The training data
// (cols, ys) is shared read-only across workers; the scratch buffers are
// worker-private and reused for every tree the worker grows.
type grower struct {
	cols []float64 // column-major features, shared read-only
	ys   []float64 // targets, shared read-only
	n    int
	dims int

	minSplit    int
	maxFeatures int
	maxDepth    int

	rng *splitmix // current tree's RNG
	t   *tree     // current tree under construction

	indices    []int   // row indices, partitioned in place during growth
	aux        []int   // stable-partition staging buffer
	featOrder  []int   // partial Fisher-Yates scratch for feature sampling
	splits     []split // the current tree's split nodes in growth order,
	splitFeat  []int32 // with their features
	bucketFill []int32 // counting-sort cursors, one per feature
}

// growTree grows one tree over the full training set with its own RNG
// into out. Scratch state is reset first so the result depends only on
// the data and the seed, never on which trees this worker grew before.
func (g *grower) growTree(out *tree, rng *splitmix) {
	for i := range g.indices {
		g.indices[i] = i
	}
	g.growPrepared(out, rng, g.n)
}

// growTreeOn grows one tree over the given row subset (ascending row
// indices). The subset is copied into the worker's index scratch, so rows
// is left untouched for fingerprinting.
func (g *grower) growTreeOn(out *tree, rng *splitmix, rows []int) {
	copy(g.indices[:len(rows)], rows)
	g.growPrepared(out, rng, len(rows))
}

// growPrepared grows a tree over the first n entries of g.indices, which
// the caller has just filled.
func (g *grower) growPrepared(out *tree, rng *splitmix, n int) {
	for i := range g.featOrder {
		g.featOrder[i] = i
	}
	// A binary tree over n samples has at most 2n-1 nodes; reserving that
	// up front makes node appends allocation-free.
	maxNodes := 2*n - 1
	out.feature = make([]int32, 0, maxNodes)
	out.threshold = make([]float64, 0, maxNodes)
	out.right = make([]int32, 0, maxNodes)
	out.leafValue = make([]float64, 0, n)
	g.splits, g.splitFeat = g.splits[:0], g.splitFeat[:0]
	g.rng = rng
	g.t = out
	g.grow(0, n, 0)
	g.rng = nil
	g.t = nil
	out.splits, out.splitStart = g.splitsByFeature()
}

// splitsByFeature buckets the grown tree's splits by feature with a
// stable counting sort (d is small) and returns them with the bucket
// offsets.
func (g *grower) splitsByFeature() ([]split, []int32) {
	start := make([]int32, g.dims+1)
	for _, f := range g.splitFeat {
		start[f+1]++
	}
	for f := 1; f < len(start); f++ {
		start[f] += start[f-1]
	}
	fill := g.bucketFill
	copy(fill, start)
	out := make([]split, len(g.splits))
	for i, f := range g.splitFeat {
		out[fill[f]] = g.splits[i]
		fill[f]++
	}
	return out, start
}

// grow builds the subtree over g.indices[lo:hi] and returns its node
// index. The index segment is partitioned in place as splits are chosen.
func (g *grower) grow(lo, hi, depth int) int32 {
	t := g.t
	idx := t.add()
	seg := g.indices[lo:hi]
	if len(seg) < g.minSplit || (g.maxDepth > 0 && depth >= g.maxDepth) || g.constantTargets(seg) {
		t.setLeaf(idx, g.meanTarget(seg))
		return idx
	}

	// Node target totals, computed once: each candidate split scores by
	// accumulating its left child only and deriving the right child as
	// (total - left). Halves the scoring flops versus two-sided sums.
	var total, totalSq float64
	for _, i := range seg {
		y := g.ys[i]
		total += y
		totalSq += y * y
	}

	bestScore := math.Inf(-1)
	bestFeature := -1
	bestThreshold := 0.0

	// Draw K distinct candidate features (without replacement when K < d).
	candidates := g.sampleFeatures()
	for _, f := range candidates {
		col := g.cols[f*g.n : (f+1)*g.n]
		flo, fhi := featureRange(col, seg)
		if fhi <= flo {
			continue // constant feature in this node
		}
		threshold := flo + g.rng.float64()*(fhi-flo)
		// Left-child sums, accumulated branchlessly: copysign turns the
		// comparison into an exact 0/1 mask, so there is no data-dependent
		// branch to mispredict (the comparison is a coin flip on random
		// thresholds) and the summation order — hence the result — is
		// identical to the naive masked loop.
		var nL, sumL, sumSqL float64
		for _, i := range seg {
			m := 0.5 + math.Copysign(0.5, threshold-col[i]) // 1 if col[i] <= threshold, else 0
			y := m * g.ys[i]
			nL += m
			sumL += y
			sumSqL += y * g.ys[i]
		}
		nR := float64(len(seg)) - nL
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
			bestFeature = f
			bestThreshold = threshold
		}
	}
	if bestFeature < 0 {
		// Every candidate feature was constant in this node.
		t.setLeaf(idx, g.meanTarget(seg))
		return idx
	}

	nL := g.partition(lo, hi, bestFeature, bestThreshold)
	if nL == 0 || nL == len(seg) {
		t.setLeaf(idx, g.meanTarget(seg))
		return idx
	}
	leafLo := int32(len(t.leafValue))
	g.grow(lo, lo+nL, depth+1) // node idx+1
	leafMid := int32(len(t.leafValue))
	right := g.grow(lo+nL, hi, depth+1)
	// t.add may have grown the arrays since idx was reserved; write
	// through g.t, not a stale slice header.
	g.t.feature[idx] = int32(bestFeature)
	g.t.threshold[idx] = bestThreshold
	g.t.right[idx] = right
	g.splits = append(g.splits, split{lo: leafLo, mid: leafMid, threshold: bestThreshold})
	g.splitFeat = append(g.splitFeat, int32(bestFeature))
	return idx
}

// partition stably partitions g.indices[lo:hi] into rows with
// feature <= threshold followed by the rest, via the worker's staging
// buffer, and returns the left-side count. Stability keeps the row order
// inside each child deterministic.
func (g *grower) partition(lo, hi, feature int, threshold float64) int {
	col := g.cols[feature*g.n : (feature+1)*g.n]
	seg := g.indices[lo:hi]
	aux := g.aux[:0]
	nL := 0
	for _, i := range seg {
		if col[i] <= threshold {
			seg[nL] = i
			nL++
		} else {
			aux = append(aux, i)
		}
	}
	copy(seg[nL:], aux)
	return nL
}

// sampleFeatures draws maxFeatures distinct features in ascending order.
// When K < d it runs a partial Fisher-Yates over the worker's persistent
// permutation scratch — K swaps, no per-node allocation (the old
// implementation built a full rng.Perm(d) each node and sorted a slice of
// it). The candidate order is whatever the shuffle produced; it is
// deterministic given the tree seed, which is all the split selection
// needs.
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

// featureRange scans one feature column over the node's rows. The builtin
// min/max compile to branchless float instructions, and the two-way
// unroll runs two independent min/max chains so the scan is bounded by
// throughput, not the latency of one serial chain.
func featureRange(col []float64, seg []int) (lo, hi float64) {
	lo0, hi0 := math.Inf(1), math.Inf(-1)
	lo1, hi1 := lo0, hi0
	k := 0
	for ; k+1 < len(seg); k += 2 {
		v0, v1 := col[seg[k]], col[seg[k+1]]
		lo0 = min(lo0, v0)
		hi0 = max(hi0, v0)
		lo1 = min(lo1, v1)
		hi1 = max(hi1, v1)
	}
	if k < len(seg) {
		v := col[seg[k]]
		lo0 = min(lo0, v)
		hi0 = max(hi0, v)
	}
	return min(lo0, lo1), max(hi0, hi1)
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
