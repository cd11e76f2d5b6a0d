package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sampling"
	"repro/internal/stats"
)

// DesignKind selects the initial-sampling strategy (Section III-C).
type DesignKind int

// The initial-design strategies.
const (
	// DesignQuasiRandom greedily picks maximally distant VMs — the
	// CherryPick-prescribed quasi-random design.
	DesignQuasiRandom DesignKind = iota + 1
	// DesignUniform picks uniformly at random without replacement.
	DesignUniform
	// DesignFixed uses caller-provided indices (the paper's
	// initial-point-sensitivity experiment).
	DesignFixed
	// DesignSobol snaps points of the Sobol' low-discrepancy sequence
	// (the paper's reference [25]) to the nearest unused candidates; the
	// seed selects the sequence offset.
	DesignSobol
)

// String names the design kind.
func (d DesignKind) String() string {
	switch d {
	case DesignQuasiRandom:
		return "quasi-random"
	case DesignUniform:
		return "uniform"
	case DesignFixed:
		return "fixed"
	case DesignSobol:
		return "sobol"
	default:
		return fmt.Sprintf("DesignKind(%d)", int(d))
	}
}

// DesignConfig configures the initial sample shared by all optimizers.
type DesignConfig struct {
	// Kind selects the strategy. Zero value means DesignQuasiRandom.
	Kind DesignKind
	// NumInitial is the design size. Zero means DefaultNumInitial.
	NumInitial int
	// Fixed holds the indices for DesignFixed.
	Fixed []int
}

// DefaultNumInitial is the initial-sample size used by CherryPick and by
// the paper's experiments.
const DefaultNumInitial = 3

// scaledFeatures returns the min-max-scaled catalog features, computed
// once per search: the designs, design replacement and the GP all work in
// this space, and the catalog is known up front, so scaling it leaks no
// measurement information. A catalog MinMaxScale rejects is not memoized,
// so every caller sees the error at its own point.
func (s *searchState) scaledFeatures() ([][]float64, error) {
	if s.scaled == nil {
		scaled, _, _, err := stats.MinMaxScale(s.features)
		if err != nil {
			return nil, err
		}
		s.scaled = scaled
	}
	return s.scaled, nil
}

// initialDesign resolves the configured design against the candidate set.
// Quasi-random designs operate on min-max-scaled features so no dimension
// dominates the distance metric.
func (s *searchState) initialDesign(cfg DesignConfig, rng *rand.Rand) ([]int, error) {
	k := cfg.NumInitial
	if k == 0 {
		k = DefaultNumInitial
	}
	kind := cfg.Kind
	if kind == 0 {
		kind = DesignQuasiRandom
	}
	var scaled [][]float64
	if kind == DesignQuasiRandom || kind == DesignSobol {
		var err error
		if scaled, err = s.scaledFeatures(); err != nil {
			return nil, fmt.Errorf("core: scaling features for design: %w", err)
		}
	}
	switch kind {
	case DesignQuasiRandom:
		idx, err := sampling.MaxMin(rng, scaled, k)
		if err != nil {
			return nil, fmt.Errorf("core: quasi-random design: %w", err)
		}
		return idx, nil
	case DesignUniform:
		idx, err := sampling.Uniform(rng, len(s.features), k)
		if err != nil {
			return nil, fmt.Errorf("core: uniform design: %w", err)
		}
		return idx, nil
	case DesignFixed:
		idx, err := sampling.Fixed(len(s.features), cfg.Fixed)
		if err != nil {
			return nil, fmt.Errorf("core: fixed design: %w", err)
		}
		return idx, nil
	case DesignSobol:
		// Derive a small sequence offset from the run's RNG so different
		// seeds see different (but individually deterministic) designs.
		skip := rng.Intn(64)
		idx, err := sampling.SobolDesign(scaled, k, skip)
		if err != nil {
			return nil, fmt.Errorf("core: sobol design: %w", err)
		}
		return idx, nil
	default:
		return nil, fmt.Errorf("core: design kind %d: %w", int(kind), ErrBadConfig)
	}
}

// runInitialDesign measures the configured initial design. A design point
// whose measurement fails is quarantined and replaced by the next
// quasi-random pick — the available candidate farthest from everything
// measured so far — so the surrogate still starts from the configured
// number of observations whenever enough candidates survive. Only a fatal
// error (context cancellation, Fatal-marked target error) is returned;
// ordinary failures land in the state's failure record.
func (s *searchState) runInitialDesign(cfg DesignConfig, rng *rand.Rand) error {
	design, err := s.initialDesign(cfg, rng)
	if err != nil {
		return err
	}
	s.designPlan = design
	k := len(design)
	successes := 0
	for _, idx := range design {
		ok, err := s.measure(idx, 0, true)
		if err != nil {
			return err
		}
		if ok {
			successes++
		}
	}
	for successes < k {
		idx := s.designReplacement(rng)
		if idx < 0 {
			return nil // catalog exhausted; the caller's loop finishes up
		}
		ok, err := s.measure(idx, 0, true)
		if err != nil {
			return err
		}
		if ok {
			successes++
		}
	}
	return nil
}

// designReplacement picks the next quasi-random design point among the
// available candidates: the one maximizing the minimum distance (over
// min-max-scaled features) to everything measured so far, i.e. one more
// greedy max-min step. With nothing measured yet it falls back to a random
// available candidate. Returns -1 when no candidates remain.
func (s *searchState) designReplacement(rng *rand.Rand) int {
	avail := s.unmeasured()
	if len(avail) == 0 {
		return -1
	}
	scaled, err := s.scaledFeatures()
	if err != nil || len(s.obs) == 0 {
		return avail[rng.Intn(len(avail))]
	}
	best, bestDist := -1, math.Inf(-1)
	for _, i := range avail {
		nearest := math.Inf(1)
		for _, obs := range s.obs {
			if d := euclidean(scaled[i], scaled[obs.Index]); d < nearest {
				nearest = d
			}
		}
		if nearest > bestDist {
			best, bestDist = i, nearest
		}
	}
	return best
}

// euclidean is the distance metric shared with the max-min design.
func euclidean(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
