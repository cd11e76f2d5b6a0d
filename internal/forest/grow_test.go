package forest

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// refGrower is the oracle for tree growth: the grower as it was before
// the node scan was fused. Each candidate feature gets its own min/max
// loop over the node's rows, then its threshold draw, then its own
// left-child sums loop, one candidate at a time, and every tree grows
// into freshly appended arrays. Production growth must reproduce its
// trees node for node and bit for bit.
type refGrower struct {
	cols []float64
	ys   []float64
	n    int
	dims int

	minSplit    int
	maxFeatures int
	maxDepth    int

	rng *splitmix
	t   *tree

	indices   []int
	aux       []int
	featOrder []int
	splits    []split
	splitFeat []int32
}

// refGrowTree grows one tree with the oracle over the given rows
// (ascending indices) of a column-major training matrix, under a
// resolved config.
func refGrowTree(cfg Config, cols, ys []float64, n, dims int, seed int64, rows []int) tree {
	g := &refGrower{
		cols:        cols,
		ys:          ys,
		n:           n,
		dims:        dims,
		minSplit:    cfg.MinSamplesSplit,
		maxFeatures: cfg.MaxFeatures,
		maxDepth:    cfg.MaxDepth,
		rng:         &splitmix{state: uint64(seed)},
		t:           &tree{},
		indices:     append([]int(nil), rows...),
		aux:         make([]int, 0, len(rows)),
		featOrder:   make([]int, dims),
	}
	for i := range g.featOrder {
		g.featOrder[i] = i
	}
	g.grow(0, len(rows), 0)

	out := *g.t
	out.splitStart = make([]int32, dims+1)
	for _, f := range g.splitFeat {
		out.splitStart[f+1]++
	}
	for f := 1; f <= dims; f++ {
		out.splitStart[f] += out.splitStart[f-1]
	}
	fill := append([]int32(nil), out.splitStart...)
	out.splits = make([]split, len(g.splits))
	for i, f := range g.splitFeat {
		out.splits[fill[f]] = g.splits[i]
		fill[f]++
	}
	return out
}

func (g *refGrower) grow(lo, hi, depth int) int32 {
	t := g.t
	idx := t.add()
	seg := g.indices[lo:hi]
	if len(seg) < g.minSplit || (g.maxDepth > 0 && depth >= g.maxDepth) || g.constantTargets(seg) {
		t.setLeaf(idx, g.meanTarget(seg))
		return idx
	}
	var total, totalSq float64
	for _, i := range seg {
		y := g.ys[i]
		total += y
		totalSq += y * y
	}

	bestScore := math.Inf(-1)
	bestFeature := -1
	bestThreshold := 0.0
	for _, f := range g.sampleFeatures() {
		col := g.cols[f*g.n : (f+1)*g.n]
		flo, fhi := math.Inf(1), math.Inf(-1)
		for _, i := range seg {
			flo = min(flo, col[i])
			fhi = max(fhi, col[i])
		}
		if fhi <= flo {
			continue
		}
		threshold := flo + g.rng.float64()*(fhi-flo)
		var nL, sumL, sumSqL float64
		for _, i := range seg {
			m := 0.5 + math.Copysign(0.5, threshold-col[i])
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
		score := -((sumSqL - sumL*sumL/nL) + (sumSqR - sumR*sumR/nR))
		if score > bestScore {
			bestScore = score
			bestFeature = f
			bestThreshold = threshold
		}
	}
	if bestFeature < 0 {
		t.setLeaf(idx, g.meanTarget(seg))
		return idx
	}

	col := g.cols[bestFeature*g.n : (bestFeature+1)*g.n]
	aux := g.aux[:0]
	nL := 0
	for _, i := range seg {
		if col[i] <= bestThreshold {
			seg[nL] = i
			nL++
		} else {
			aux = append(aux, i)
		}
	}
	copy(seg[nL:], aux)
	if nL == 0 || nL == len(seg) {
		t.setLeaf(idx, g.meanTarget(seg))
		return idx
	}
	leafLo := int32(len(t.leafValue))
	g.grow(lo, lo+nL, depth+1)
	leafMid := int32(len(t.leafValue))
	right := g.grow(lo+nL, hi, depth+1)
	t.feature[idx] = int32(bestFeature)
	t.threshold[idx] = bestThreshold
	t.right[idx] = right
	g.splits = append(g.splits, split{lo: leafLo, mid: leafMid, threshold: bestThreshold})
	g.splitFeat = append(g.splitFeat, int32(bestFeature))
	return idx
}

func (g *refGrower) sampleFeatures() []int {
	k, d := g.maxFeatures, g.dims
	if k >= d {
		return g.featOrder
	}
	for j := 0; j < k; j++ {
		r := j + g.rng.intn(d-j)
		g.featOrder[j], g.featOrder[r] = g.featOrder[r], g.featOrder[j]
	}
	return g.featOrder[:k]
}

func (g *refGrower) constantTargets(seg []int) bool {
	for _, i := range seg[1:] {
		if g.ys[i] != g.ys[seg[0]] {
			return false
		}
	}
	return true
}

func (g *refGrower) meanTarget(seg []int) float64 {
	sum := 0.0
	for _, i := range seg {
		sum += g.ys[i]
	}
	return sum / float64(len(seg))
}

// refRows returns the rows the tree with the given seed trains on and
// their fingerprint, computed the direct way: a list of the rows whose
// units the tree keeps, fingerprinted whole, or the full set when there
// is no subsampling or fewer than two rows are kept.
func refRows(cfg Config, seed int64, units [][2]int32) ([]int, uint64) {
	n := len(units)
	var rows []int
	if cfg.SampleRate > 0 && cfg.SampleRate < 1 {
		for i, u := range units {
			if keepUnit(seed, u[0], cfg.SampleRate) && keepUnit(seed, u[1], cfg.SampleRate) {
				rows = append(rows, i)
			}
		}
		if len(rows) >= 2 {
			return rows, fingerprintRows(rows)
		}
	}
	return identityRows(n), fingerprintRows([]int{-1, n})
}

func identityRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// checkAgainstReference compares every tree of reg with the oracle's,
// node for node: features, threshold and leaf-value bits, right
// children, and the leaf-mask split layout. units nil means reg came
// from Fit (every tree on every row).
func checkAgainstReference(t *testing.T, label string, reg *Regressor, cfg Config, xs [][]float64, ys []float64, units [][2]int32) {
	t.Helper()
	dims := len(xs[0])
	rc, err := resolveConfig(cfg, dims)
	if err != nil {
		t.Fatal(err)
	}
	n := len(xs)
	cols := buildColumns(xs, dims)
	seeds := treeSeeds(rc.Seed, rc.NumTrees)
	if len(reg.trees) != rc.NumTrees {
		t.Fatalf("%s: %d trees, want %d", label, len(reg.trees), rc.NumTrees)
	}
	for ti := range reg.trees {
		rows := identityRows(n)
		if units != nil {
			var fp uint64
			rows, fp = refRows(rc, seeds[ti], units)
			if got := reg.state.fps[ti]; got != fp {
				t.Fatalf("%s: tree %d fingerprint %#x, want %#x", label, ti, got, fp)
			}
		}
		want := refGrowTree(rc, cols, ys, n, dims, seeds[ti], rows)
		if msg := treeDiff(&reg.trees[ti], &want); msg != "" {
			t.Fatalf("%s: tree %d: %s", label, ti, msg)
		}
	}
}

// treeDiff describes the first difference between two trees, or returns
// "" when they match bit for bit.
func treeDiff(got, want *tree) string {
	if len(got.feature) != len(want.feature) || len(got.threshold) != len(want.feature) || len(got.right) != len(want.feature) {
		return "node count differs"
	}
	for i := range want.feature {
		switch {
		case got.feature[i] != want.feature[i]:
			return "feature differs at node " + strconv.Itoa(i)
		case math.Float64bits(got.threshold[i]) != math.Float64bits(want.threshold[i]):
			return "threshold bits differ at node " + strconv.Itoa(i)
		case got.right[i] != want.right[i]:
			return "right child differs at node " + strconv.Itoa(i)
		}
	}
	if len(got.leafValue) != len(want.leafValue) {
		return "leaf count differs"
	}
	for i := range want.leafValue {
		if math.Float64bits(got.leafValue[i]) != math.Float64bits(want.leafValue[i]) {
			return "leaf value bits differ at leaf " + strconv.Itoa(i)
		}
	}
	if len(got.splits) != len(want.splits) || len(got.splitStart) != len(want.splitStart) {
		return "split layout size differs"
	}
	for i, s := range want.splits {
		g := got.splits[i]
		if g.lo != s.lo || g.mid != s.mid || math.Float64bits(g.threshold) != math.Float64bits(s.threshold) {
			return "split differs at " + strconv.Itoa(i)
		}
	}
	for i, s := range want.splitStart {
		if got.splitStart[i] != s {
			return "splitStart differs at " + strconv.Itoa(i)
		}
	}
	return ""
}

// columnValue draws one value of a column of the given kind. The kinds
// cover what trips a node scan: continuous values, a few repeated values
// with both signed zeros, a column that is constant (possibly -0), one
// holding only -0 and +0, and values one ulp apart, where a drawn
// threshold often rounds onto a row's value and the <= tie decides.
func columnValue(rng *rand.Rand, kind int, constant float64) float64 {
	switch kind {
	case 0:
		return rng.NormFloat64() * 3
	case 1:
		return []float64{-1, math.Copysign(0, -1), 0, 1, 2.5}[rng.Intn(5)]
	case 2:
		return constant
	case 3:
		return []float64{math.Copysign(0, -1), 0}[rng.Intn(2)]
	default:
		v := 1.0
		for k := rng.Intn(3); k > 0; k-- {
			v = math.Nextafter(v, 2)
		}
		return v
	}
}

// randomTraining builds a pairwise-shaped training set over numUnits
// units in measurement order — each unit's self row, then its pairs with
// every earlier unit — with column kinds drawn at random and targets
// that are continuous, discrete with signed zeros, or a function of the
// destination unit only.
func randomTraining(rng *rand.Rand, numUnits, dims int) ([][]float64, []float64, [][2]int32) {
	kinds := make([]int, dims)
	consts := make([]float64, dims)
	for j := range kinds {
		kinds[j] = rng.Intn(5)
		consts[j] = []float64{math.Copysign(0, -1), 0, 3.5}[rng.Intn(3)]
	}
	yKind := rng.Intn(3)
	perUnit := make([]float64, numUnits)
	for u := range perUnit {
		perUnit[u] = rng.NormFloat64()
	}
	var xs [][]float64
	var ys []float64
	var units [][2]int32
	addRow := func(src, dst int) {
		row := make([]float64, dims)
		for c := range row {
			row[c] = columnValue(rng, kinds[c], consts[c])
		}
		y := perUnit[dst]
		switch yKind {
		case 0:
			y = rng.NormFloat64()
		case 1:
			y = []float64{math.Copysign(0, -1), 0, 1, -2}[rng.Intn(4)]
		}
		xs = append(xs, row)
		ys = append(ys, y)
		units = append(units, [2]int32{int32(src), int32(dst)})
	}
	for k := 0; k < numUnits; k++ {
		addRow(k, k)
		for j := 0; j < k; j++ {
			addRow(j, k)
			addRow(k, j)
		}
	}
	return xs, ys, units
}

// TestGrowMatchesReference checks production growth against the
// per-candidate oracle node for node over random ensembles: every K from
// 1 to d (fewer than, exactly and more than one scan group), bounded and
// unbounded depth, MinSamplesSplit 2-4, SampleRate 0, 0.7 and 1,
// repeated, constant, signed-zero and ulp-adjacent columns, signed-zero
// targets, and 1, 2 and GOMAXPROCS+3 workers. It then replays Refit
// chains: across appends and across a rewritten prefix, the incremental
// fingerprints, chain states and kept counts must equal a from-scratch
// fit's, and the trees the oracle's.
func TestGrowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	workers := []int{1, 2, runtime.GOMAXPROCS(0) + 3}
	rates := []float64{0, 0.7, 1}
	trials := 0
	for dims := 1; dims <= 9; dims++ {
		for k := 1; k <= dims; k++ {
			trials++
			xs, ys, units := randomTraining(rng, 3+rng.Intn(6), dims)
			cfg := Config{
				NumTrees:        12,
				MaxFeatures:     k,
				MaxDepth:        []int{0, 0, 2, 4}[rng.Intn(4)],
				MinSamplesSplit: 2 + rng.Intn(3),
				SampleRate:      rates[trials%3],
				Seed:            rng.Int63(),
				Parallelism:     workers[trials%3],
			}
			label := "d=" + strconv.Itoa(dims) + " K=" + strconv.Itoa(k)
			sampled, err := FitSampled(cfg, xs, ys, units)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, label+" FitSampled", sampled, cfg, xs, ys, units)
			plain, err := Fit(cfg, xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, label+" Fit", plain, cfg, xs, ys, nil)
		}
	}

	for trial := 0; trial < 6; trial++ {
		dims := 2 + rng.Intn(8)
		xs, ys, units := randomTraining(rng, 9, dims)
		cfg := Config{NumTrees: 30, SampleRate: 0.7, Seed: rng.Int63(), Parallelism: workers[trial%3]}
		var prev *Regressor
		for limit := int32(2); limit <= 9; limit++ {
			fx, fy, fu := rowsForUnits(xs, ys, units, limit)
			inc, info, err := Refit(prev, cfg, fx, fy, fu)
			if err != nil {
				t.Fatal(err)
			}
			if info.Incremental != (prev != nil) {
				t.Fatalf("limit %d: Incremental=%v", limit, info.Incremental)
			}
			label := "chain " + strconv.Itoa(trial) + " limit " + strconv.Itoa(int(limit))
			checkAgainstReference(t, label, inc, cfg, fx, fy, fu)
			full, err := FitSampled(cfg, fx, fy, fu)
			if err != nil {
				t.Fatal(err)
			}
			checkSampleStates(t, label, inc.state, full.state)
			prev = inc
		}

		// A rewritten prefix row: not an extension, so a full re-grow
		// whose fingerprints are still the from-scratch ones.
		mutated := append([][]float64(nil), xs...)
		mutated[1] = append([]float64(nil), xs[1]...)
		mutated[1][0] += 1
		inc, info, err := Refit(prev, cfg, mutated, ys, units)
		if err != nil {
			t.Fatal(err)
		}
		if info.Incremental {
			t.Fatal("prefix mismatch refit reported incremental")
		}
		label := "chain " + strconv.Itoa(trial) + " prefix mismatch"
		checkAgainstReference(t, label, inc, cfg, mutated, ys, units)
		full, err := FitSampled(cfg, mutated, ys, units)
		if err != nil {
			t.Fatal(err)
		}
		checkSampleStates(t, label, inc.state, full.state)
	}
}

// checkSampleStates demands an incrementally maintained snapshot's
// per-tree fingerprint state equal a from-scratch fit's.
func checkSampleStates(t *testing.T, label string, got, want *sampleState) {
	t.Helper()
	for ti := range want.fps {
		if got.fps[ti] != want.fps[ti] || got.chain[ti] != want.chain[ti] || got.kept[ti] != want.kept[ti] {
			t.Fatalf("%s: tree %d state (fp %#x, chain %#x, kept %d), from scratch (%#x, %#x, %d)",
				label, ti, got.fps[ti], got.chain[ti], got.kept[ti], want.fps[ti], want.chain[ti], want.kept[ti])
		}
	}
}

// FuzzGrowMatchesReference turns its input into a small training set and
// ensemble config and demands production growth reproduce the oracle's
// trees. The first bytes pick the shape and config; the rest are values
// drawn from a palette of signed zeros, ulp-adjacent, repeated and huge
// magnitudes, where squares and ranges overflow.
func FuzzGrowMatchesReference(f *testing.F) {
	f.Add([]byte{12, 5, 4, 0, 2, 1, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{30, 9, 6, 3, 3, 1, 1, 200, 17, 33, 99, 4, 4, 4, 1, 0, 255, 128})
	f.Add([]byte{5, 2, 1, 1, 4, 0, 3, 2, 2, 2, 3, 3, 3})
	f.Add([]byte{20, 4, 2, 0, 2, 2, 9, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})
	palette := []float64{
		0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2),
		-1, 2.5, -3.75, 1e300, -1e300, 1e-300, math.MaxFloat64, -math.MaxFloat64,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		n := 2 + int(data[0])%40
		dims := 1 + int(data[1])%9
		cfg := Config{
			NumTrees:        4,
			MaxFeatures:     int(data[2]) % (dims + 1),
			MaxDepth:        int(data[3]) % 5,
			MinSamplesSplit: 2 + int(data[4])%3,
			SampleRate:      []float64{0, 0.7, 1}[int(data[5])%3],
			Seed:            int64(data[6]),
			Parallelism:     1 + int(data[7])%3,
		}
		body := data[8:]
		at := 0
		next := func() byte {
			if len(body) == 0 {
				return 0
			}
			b := body[at%len(body)]
			at++
			return b
		}
		value := func() float64 {
			b := next()
			if b < 128 {
				return palette[int(b)%len(palette)]
			}
			return float64(int(b)-192) / 8
		}
		xs := make([][]float64, n)
		ys := make([]float64, n)
		units := make([][2]int32, n)
		for i := range xs {
			xs[i] = make([]float64, dims)
			for j := range xs[i] {
				xs[i][j] = value()
			}
			ys[i] = value()
			units[i] = [2]int32{int32(next() % 6), int32(next() % 6)}
		}
		sampled, err := FitSampled(cfg, xs, ys, units)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, "FitSampled", sampled, cfg, xs, ys, units)
		plain, err := Fit(cfg, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, "Fit", plain, cfg, xs, ys, nil)
	})
}
