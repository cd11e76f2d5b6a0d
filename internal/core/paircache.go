package core

import (
	"math"

	"repro/internal/forest"
	"repro/internal/lowlevel"
)

// zeroMetrics stands in for the low-level vector under the ablation
// switch, so ablated rows need no per-row zero value.
var zeroMetrics lowlevel.Vector

// pairCache incrementally maintains the pairwise training set of the
// augmented surrogate. The old path rebuilt every (src -> dst) row from
// scratch on each iteration — O(n^2) rows, each freshly allocated, twice
// per iteration under a time SLO. The cache appends only the rows a new
// observation introduces (2k rows for the k+1-th observation) into one
// backing slab and hands the surrogate stable views into it.
//
// Both targets (log objective value and log execution time) are recorded
// per row, since the objective and time models train on identical feature
// rows and differ only in ys.
type pairCache struct {
	disableLowLevel bool

	// slab backs every cached row. Its capacity is exact for the worst
	// case (all N candidates measured -> N(N-1) ordered pairs), so appends
	// never reallocate and previously handed-out row views stay valid.
	slab     []float64
	rows     [][]float64
	logVals  []float64  // log objective value of the destination
	logTimes []float64  // log execution time of the destination
	units    [][2]int32 // per row: (source, destination) observation units
	synced   int        // observations incorporated so far

	// Warm-start history pairs, built once; they join the training set
	// only for the objective model. Warm units occupy [0, warmUnitCount)
	// of the unit id space; live observations follow.
	warmRows      [][]float64
	warmLogVals   []float64
	warmUnits     [][2]int32
	warmUnitCount int32

	// Per-fit scratch: slice headers over rows/warmRows and copied-out ys,
	// so assembling a training set allocates nothing at steady state.
	xsScratch    []([]float64)
	ysScratch    []float64
	unitsScratch [][2]int32

	// The previous fitted ensembles, fed back into forest.Refit so an
	// iteration re-grows only the trees whose sampled rows changed. Batch
	// planning chains its fantasy fits through them too and restores
	// them on return (see augPlanner.fantasize).
	prevObj  *forest.Regressor
	prevTime *forest.Regressor

	// Prediction query halves: one [features(src) || lowlevel(src)] row
	// per synced observation, appended by sync like the pair rows, and the
	// candidate halves, which are views of the candidates' features.
	srcSlab []float64
	srcRows [][]float64
	dstRows [][]float64

	// The raw per-(candidate, source) model output and the per-candidate
	// reductions.
	rawPreds  []float64
	objMeans  []float64
	timeMeans []float64
}

// newPairCache sizes the cache for a catalog of numCandidates VMs with
// numFeat instance features each.
func newPairCache(numCandidates, numFeat int, disableLowLevel bool) *pairCache {
	width := 2*numFeat + int(lowlevel.NumMetrics)
	// A search measuring m of the n candidates holds m*(m-1) pair rows,
	// and m is typically far below n — sizing the slab for the full
	// catalog made it the advisor path's single largest allocation. Start
	// with room for pairs among a handful of measurements and let append
	// grow it; appendObsPair's full-capacity reslice keeps earlier row
	// headers valid (they simply go on pointing into the old array).
	initRows := 16 * 15
	if maxRows := numCandidates * (numCandidates - 1); initRows > maxRows {
		initRows = maxRows
	}
	return &pairCache{
		disableLowLevel: disableLowLevel,
		slab:            make([]float64, 0, initRows*width),
		rows:            make([][]float64, 0, initRows),
		logVals:         make([]float64, 0, initRows),
		logTimes:        make([]float64, 0, initRows),
	}
}

// addWarm builds the historical (src -> dst) pairs once. Ragged feature
// vectors are passed through untouched; forest.Fit rejects them exactly as
// the per-iteration rebuild used to.
func (c *pairCache) addWarm(priors []PriorObservation) {
	c.warmUnitCount = int32(len(priors))
	for i := range priors {
		for j := range priors {
			if i == j {
				continue
			}
			src, dst := &priors[i], &priors[j]
			metrics := &src.Metrics
			if c.disableLowLevel {
				metrics = &zeroMetrics
			}
			row := make([]float64, 0, len(src.Features)+int(lowlevel.NumMetrics)+len(dst.Features))
			c.warmRows = append(c.warmRows, appendPairRow(row, src.Features, metrics, dst.Features))
			c.warmLogVals = append(c.warmLogVals, math.Log(dst.Value))
			c.warmUnits = append(c.warmUnits, [2]int32{int32(i), int32(j)})
		}
	}
}

// sync appends the rows introduced by observations the cache has not seen
// yet: for the k-th observation, its source half and the pairs (j -> k)
// and (k -> j) for every j < k. Row order is append order, which is
// deterministic given the measurement sequence.
func (c *pairCache) sync(st *searchState) {
	for k := c.synced; k < len(st.obs); k++ {
		dst := &st.obs[k]
		metrics := &dst.Outcome.Metrics
		if c.disableLowLevel {
			metrics = &zeroMetrics
		}
		start := len(c.srcSlab)
		c.srcSlab = append(append(c.srcSlab, st.features[dst.Index]...), metrics[:]...)
		c.srcRows = append(c.srcRows, c.srcSlab[start:len(c.srcSlab):len(c.srcSlab)])
		for j := 0; j < k; j++ {
			src := &st.obs[j]
			c.appendObsPair(st, src, dst, j, k)
			c.appendObsPair(st, dst, src, k, j)
		}
	}
	c.synced = len(st.obs)
}

// appendObsPair appends one (src -> dst) row. srcObs/dstObs are the
// indices of the observations in st.obs; offset by the warm-unit count
// they become the row's sampling units, the stable ids forest.FitSampled
// hashes for per-tree row membership.
func (c *pairCache) appendObsPair(st *searchState, src, dst *Observation, srcObs, dstObs int) {
	metrics := &src.Outcome.Metrics
	if c.disableLowLevel {
		metrics = &zeroMetrics
	}
	start := len(c.slab)
	c.slab = appendPairRow(c.slab, st.features[src.Index], metrics, st.features[dst.Index])
	c.rows = append(c.rows, c.slab[start:len(c.slab):len(c.slab)])
	c.logVals = append(c.logVals, math.Log(dst.Value))
	c.logTimes = append(c.logTimes, math.Log(dst.Outcome.TimeSec))
	c.units = append(c.units, [2]int32{c.warmUnitCount + int32(srcObs), c.warmUnitCount + int32(dstObs)})
}

// pairMark captures the cache's row-count state so fantasized rows can be
// rolled back (see rollback).
type pairMark struct {
	slab, rows, vals, times, units int
}

// mark snapshots the current row counts.
func (c *pairCache) mark() pairMark {
	return pairMark{
		slab:  len(c.slab),
		rows:  len(c.rows),
		vals:  len(c.logVals),
		times: len(c.logTimes),
		units: len(c.units),
	}
}

// rollback truncates every appended-to slice back to a mark, discarding
// the virtual pair rows batch planning appended. synced is untouched: the
// fantasized destinations were never real observations, so the cache's
// notion of which st.obs entries it has incorporated is still exact. If an
// append in between reallocated the slab the earlier row headers keep
// pointing into the old backing array, whose prefix holds the same values
// — rollback only has to restore lengths, never contents.
func (c *pairCache) rollback(m pairMark) {
	c.slab = c.slab[:m.slab]
	c.rows = c.rows[:m.rows]
	c.logVals = c.logVals[:m.vals]
	c.logTimes = c.logTimes[:m.times]
	c.units = c.units[:m.units]
}

// pairTarget selects which recorded target a training set uses.
type pairTarget int

const (
	pairTargetObjective pairTarget = iota
	pairTargetTime
)

// trainingSet assembles (xs, ys, units) for a fit from the cached rows,
// reusing the scratch slices. Warm-start history leads, so that across
// iterations the training set only ever appends — the bitwise-prefix
// property forest.Refit needs to reuse unchanged trees. The returned
// slices are valid until the next call; forest.Refit copies the data, so
// handing them straight to it is safe.
func (c *pairCache) trainingSet(target pairTarget, withHistory bool) ([][]float64, []float64, [][2]int32) {
	xs := c.xsScratch[:0]
	ys := c.ysScratch[:0]
	units := c.unitsScratch[:0]
	if withHistory {
		xs = append(xs, c.warmRows...)
		ys = append(ys, c.warmLogVals...)
		units = append(units, c.warmUnits...)
	}
	xs = append(xs, c.rows...)
	if target == pairTargetTime {
		ys = append(ys, c.logTimes...)
	} else {
		ys = append(ys, c.logVals...)
	}
	units = append(units, c.units...)
	c.xsScratch, c.ysScratch, c.unitsScratch = xs, ys, units
	return xs, ys, units
}

// queryHalves returns the halves of the batched query: the source half
// of every measured source VM, in observation order, and the candidate
// half of every remaining candidate. Row (source s, candidate i) of the
// pairwise model is their concatenation, so forest.PredictPairs lays its
// output out candidate-major in source order. Call after sync; fantasized
// destinations are never sources.
func (c *pairCache) queryHalves(st *searchState, remaining []int) (srcs, dsts [][]float64) {
	c.dstRows = c.dstRows[:0]
	for _, idx := range remaining {
		c.dstRows = append(c.dstRows, st.features[idx])
	}
	return c.srcRows[:len(st.obs)], c.dstRows
}

// reduceMeans folds the raw per-(candidate, source) log predictions into
// one value per candidate: the arithmetic mean over sources in source
// order (fixed summation order keeps results bit-identical to the old
// per-source loop), exponentiated back out of log space.
func reduceMeans(dst, raw []float64, numCandidates, numSources int) []float64 {
	if cap(dst) >= numCandidates {
		dst = dst[:numCandidates]
	} else {
		dst = make([]float64, numCandidates)
	}
	for i := 0; i < numCandidates; i++ {
		sum := 0.0
		for _, v := range raw[i*numSources : (i+1)*numSources] {
			sum += v
		}
		dst[i] = math.Exp(sum / float64(numSources))
	}
	return dst
}
