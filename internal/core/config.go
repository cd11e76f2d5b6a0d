package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/acquisition"
	"repro/internal/forest"
	"repro/internal/kernel"
	"repro/internal/telemetry"
)

// Method selects a search method.
type Method int

// The search methods.
const (
	// MethodNaiveBO is the CherryPick-style baseline: a Gaussian-process
	// surrogate, Expected Improvement and an EI-fraction stopping rule.
	MethodNaiveBO Method = iota + 1
	// MethodAugmentedBO is Arrow: an Extra-Trees surrogate over the
	// instance space augmented with the low-level metrics of every
	// measured VM, with Prediction-Delta acquisition and stopping.
	MethodAugmentedBO
	// MethodHybridBO opens with Naive BO and hands the same history to
	// Augmented BO after SwitchAfter measurements (Section V-B).
	MethodHybridBO
	// MethodRandomSearch measures candidates in a uniformly random order,
	// a calibration baseline outside the paper's comparison.
	MethodRandomSearch
)

// String names the method. The name labels results and trace events.
func (m Method) String() string {
	switch m {
	case MethodNaiveBO:
		return "naive-bo"
	case MethodAugmentedBO:
		return "augmented-bo"
	case MethodHybridBO:
		return "hybrid-bo"
	case MethodRandomSearch:
		return "random-search"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config configures a search. Every method reads Objective,
// MaxMeasurements, Seed and Tracer; which other fields it reads is the
// policy table below (reads). A field the method does not read is
// neither validated nor part of its canonical form.
type Config struct {
	// Method selects the search. Required.
	Method Method
	// Objective selects what to minimize. Required; Search rejects an
	// invalid one.
	Objective Objective

	// Kernel is the GP covariance family. Zero means kernel.Matern52,
	// CherryPick's prescribed choice. Ignored when AutoKernel is set.
	Kernel kernel.Kind
	// AutoKernel selects the kernel family per fit by log marginal
	// likelihood across RBF and the Matérn family — the "automatic model
	// selection" practice Section III-B cites as the engineering
	// alternative to hand-picking a kernel.
	AutoKernel bool
	// Acquisition selects the GP acquisition function. Zero means
	// Expected Improvement (CherryPick's choice); PI, GP-UCB and
	// max-value entropy search are provided for comparison. The
	// EI-fraction stopping rule only applies to Expected Improvement;
	// other acquisitions run until MaxMeasurements.
	Acquisition acquisition.Kind
	// ARD enables per-dimension GP length scales (automatic relevance
	// determination), letting the surrogate discount instance features
	// that do not matter for the workload at hand.
	ARD bool

	// MaxTimeSLO, when positive, constrains the search to VMs whose
	// execution time stays within the SLO — CherryPick's original
	// formulation ("minimize cost subject to a performance constraint").
	// Only SLO-meeting observations can become the incumbent. The GP
	// surrogate gains a second GP modeling execution time and its
	// acquisition becomes constrained EI, EI x P(time <= SLO), so it
	// requires the EI acquisition; the pairwise surrogate gains a second
	// pairwise time model and deprioritizes candidates predicted to
	// violate the SLO.
	MaxTimeSLO float64
	// EIStopFraction stops Naive BO once the maximum Expected
	// Improvement falls below this fraction of the best observation
	// (CherryPick uses 10%). Zero means DefaultEIStopFraction; negative
	// disables early stopping.
	EIStopFraction float64
	// DeltaThreshold is the Prediction-Delta stopping threshold theta:
	// the search stops once every unmeasured VM's predicted objective
	// exceeds theta x the incumbent, i.e. no VM is predicted to be worth
	// exploring. The paper sweeps theta in [0.9, 1.3] and recommends 1.1
	// (Section VI-A). Zero means DefaultDeltaThreshold; negative disables
	// early stopping.
	DeltaThreshold float64
	// SwitchAfter is the number of measurements (including the initial
	// design) after which Hybrid BO's Augmented phase takes over. Zero
	// means DefaultSwitchAfter.
	SwitchAfter int
	// MaxMeasurements caps the search cost. Zero means the whole
	// catalog.
	MaxMeasurements int
	// Design configures the initial sample.
	Design DesignConfig
	// Seed drives the initial design, the tree randomization and random
	// search's order; the GP is deterministic given the observations.
	Seed int64

	// DisableLowLevel is the ablation switch: the pairwise surrogate is
	// trained on instance features only, zeroing out the low-level
	// metrics. Used to quantify how much of Arrow's advantage comes from
	// the low-level augmentation versus the tree surrogate + pairwise
	// encoding alone.
	DisableLowLevel bool
	// WarmStart seeds the pairwise surrogate with observations from a
	// previous run of a *related* workload on the same candidate catalog
	// (the paper's stated future work: "augment Bayesian Optimizer with
	// historical performance data"). Prior observations contribute
	// (src -> dst) training pairs among themselves but are never used as
	// prediction sources, so stale history can bias early picks at worst
	// — it cannot fabricate measurements.
	WarmStart []PriorObservation
	// Tracer receives the search's event stream (see internal/telemetry).
	// Nil disables tracing at zero cost.
	Tracer telemetry.Tracer

	// fullRefit forces every surrogate fit to start from scratch: the GP
	// refactors its kernel matrix instead of extending the previous
	// Cholesky factors, and the forest re-grows every tree instead of
	// reusing those whose sampled rows did not change. The search is
	// bit-identical either way (the extension is prefix-stable, and
	// forest.Refit guarantees it); only this package's tests set it, as
	// the oracle the incremental path is checked against.
	fullRefit bool
	// forest configures the pairwise Extra-Trees surrogate; Canonical
	// fills in its defaults and the search manages its seed. Only this
	// package's tests set it, to shrink the ensemble or pin its worker
	// count.
	forest forest.Config
}

// The defaults Canonical fills in for zero fields.
const (
	// DefaultEIStopFraction is CherryPick's stopping threshold: stop
	// once no candidate's expected improvement reaches 10% of the
	// incumbent.
	DefaultEIStopFraction = 0.10
	// DefaultDeltaThreshold is the paper's recommended Prediction-Delta
	// stopping threshold.
	DefaultDeltaThreshold = 1.1
	// DefaultSwitchAfter hands Hybrid BO over after the initial design
	// plus one EI-guided measurement — the region where Figure 9 shows
	// Naive BO ahead.
	DefaultSwitchAfter = 4
	// defaultPairSampleRate is the per-tree observation-unit keep
	// probability of the pairwise surrogate. Each tree trains on the
	// pair rows whose source and destination units it keeps (~49% of
	// rows), so measuring one more VM re-grows only the ~70% of trees
	// that keep the new unit — the lever behind incremental refits.
	defaultPairSampleRate = 0.7
)

// setting is one group of Config fields a method may read.
type setting uint8

const (
	readsGP     setting = 1 << iota // Kernel, AutoKernel, Acquisition, ARD
	readsEIStop                     // EIStopFraction
	readsDelta                      // DeltaThreshold
	readsSwitch                     // SwitchAfter
	readsSLO                        // MaxTimeSLO
	readsDesign                     // Design
	readsPairs                      // DisableLowLevel, WarmStart and the forest
)

// reads is the policy table: the settings each method's search reads.
// Hybrid BO's opening phase is Naive BO without its stopping rule (the
// switch point ends it), and its closing phase is Augmented BO, which
// does not draw a design of its own.
var reads = map[Method]setting{
	MethodNaiveBO:      readsGP | readsEIStop | readsSLO | readsDesign,
	MethodAugmentedBO:  readsDelta | readsSLO | readsDesign | readsPairs,
	MethodHybridBO:     readsGP | readsDelta | readsSwitch | readsSLO | readsDesign | readsPairs,
	MethodRandomSearch: 0,
}

// Canonical returns c as New runs it: the defaults of every setting its
// method reads filled in (Matérn 5/2 kernel, EI acquisition, EI stop
// 0.10, delta 1.1, switch-after 4, the 3-point quasi-random design, and
// 100 trees of min-split 2 each keeping 70% of the observation units),
// each negative stopping threshold collapsed to -1 (off), and every
// field the method does not read zeroed. Configs with equal canonical
// forms search identically, which is what the study's run-cache key
// relies on. An unknown method keeps only the fields every method reads.
func (c Config) Canonical() Config {
	r := reads[c.Method]
	out := Config{
		Method:          c.Method,
		Objective:       c.Objective,
		MaxMeasurements: c.MaxMeasurements,
		Seed:            c.Seed,
		Tracer:          c.Tracer,
		fullRefit:       c.fullRefit,
	}
	if r&readsGP != 0 {
		out.Kernel = cmp.Or(c.Kernel, kernel.Matern52)
		out.AutoKernel = c.AutoKernel
		out.Acquisition = cmp.Or(c.Acquisition, acquisition.ExpectedImprovement)
		out.ARD = c.ARD
	}
	if r&readsEIStop != 0 {
		out.EIStopFraction = stopThreshold(c.EIStopFraction, DefaultEIStopFraction)
	}
	if r&readsDelta != 0 {
		out.DeltaThreshold = stopThreshold(c.DeltaThreshold, DefaultDeltaThreshold)
	}
	if r&readsSwitch != 0 {
		out.SwitchAfter = cmp.Or(c.SwitchAfter, DefaultSwitchAfter)
	}
	if r&readsSLO != 0 {
		out.MaxTimeSLO = c.MaxTimeSLO
	}
	if r&readsDesign != 0 {
		out.Design = DesignConfig{
			Kind:       cmp.Or(c.Design.Kind, DesignQuasiRandom),
			NumInitial: cmp.Or(c.Design.NumInitial, DefaultNumInitial),
		}
		if out.Design.Kind == DesignFixed {
			out.Design.Fixed = c.Design.Fixed
		}
	}
	if r&readsPairs != 0 {
		out.DisableLowLevel = c.DisableLowLevel
		out.WarmStart = c.WarmStart
		out.forest = c.forest
		out.forest.NumTrees = cmp.Or(c.forest.NumTrees, forest.DefaultNumTrees)
		out.forest.MinSamplesSplit = cmp.Or(c.forest.MinSamplesSplit, forest.DefaultMinSamplesSplit)
		out.forest.SampleRate = cmp.Or(c.forest.SampleRate, defaultPairSampleRate)
	}
	return out
}

// stopThreshold resolves a stopping threshold: zero means the default,
// any negative value means off (-1).
func stopThreshold(v, def float64) float64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return -1
	default:
		return v
	}
}

// Forest reports the Extra-Trees settings of the method's pairwise
// surrogate: the defaults in a canonical config, zero for a method
// without the surrogate. The search draws the seed.
func (c Config) Forest() forest.Config { return c.forest }

// validate checks the settings a canonical config's method reads, and
// only those.
func (c Config) validate() error {
	r, ok := reads[c.Method]
	if !ok {
		return fmt.Errorf("core: method %d: %w", int(c.Method), ErrBadConfig)
	}
	if r&readsGP != 0 {
		switch c.Acquisition {
		case acquisition.ExpectedImprovement, acquisition.ProbabilityOfImprovement,
			acquisition.UpperConfidenceBound, acquisition.EntropySearch:
		default:
			return fmt.Errorf("core: acquisition %v unsupported for the GP surrogate: %w", c.Acquisition, ErrBadConfig)
		}
	}
	if r&readsEIStop != 0 {
		if c.EIStopFraction > 1 {
			return fmt.Errorf("core: EI stop fraction %v > 1: %w", c.EIStopFraction, ErrBadConfig)
		}
		if math.IsNaN(c.EIStopFraction) {
			return fmt.Errorf("core: EI stop fraction %v would never fire: %w", c.EIStopFraction, ErrBadConfig)
		}
	}
	if r&readsDelta != 0 {
		if math.IsNaN(c.DeltaThreshold) || math.IsInf(c.DeltaThreshold, 1) {
			return fmt.Errorf("core: delta threshold %v would never fire: %w", c.DeltaThreshold, ErrBadConfig)
		}
		if c.DeltaThreshold > 0 && c.DeltaThreshold < 0.5 {
			return fmt.Errorf("core: delta threshold %v is below any sensible value: %w", c.DeltaThreshold, ErrBadConfig)
		}
	}
	if r&readsSwitch != 0 && c.SwitchAfter < 2 {
		return fmt.Errorf("core: switch-after %d leaves the pairwise surrogate without data: %w", c.SwitchAfter, ErrBadConfig)
	}
	if r&readsSLO != 0 {
		if c.MaxTimeSLO < 0 || math.IsNaN(c.MaxTimeSLO) || math.IsInf(c.MaxTimeSLO, 0) {
			return fmt.Errorf("core: time SLO %v invalid: %w", c.MaxTimeSLO, ErrBadConfig)
		}
		if c.MaxTimeSLO > 0 && r&readsGP != 0 && c.Acquisition != acquisition.ExpectedImprovement {
			return fmt.Errorf("core: time SLO requires the EI acquisition, have %v: %w", c.Acquisition, ErrBadConfig)
		}
	}
	if r&readsPairs != 0 {
		for i, prior := range c.WarmStart {
			if len(prior.Features) == 0 {
				return fmt.Errorf("core: warm-start observation %d has no features: %w", i, ErrBadConfig)
			}
			if prior.Value <= 0 || math.IsNaN(prior.Value) || math.IsInf(prior.Value, 0) {
				return fmt.Errorf("core: warm-start observation %d has invalid value %v: %w", i, prior.Value, ErrBadConfig)
			}
			if err := prior.Metrics.Validate(); err != nil {
				return fmt.Errorf("core: warm-start observation %d: %w", i, err)
			}
		}
	}
	return nil
}

// New validates c and builds its method's optimizer — the one
// constructor of every search method.
func New(c Config) (Optimizer, error) {
	c = c.Canonical()
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &optimizer{cfg: c}, nil
}

// optimizer is every method's Optimizer: one canonical Config and the
// search it selects. The methods' loops are its methods — Naive BO's in
// naive.go, Augmented BO's in augmented.go — so Hybrid BO runs the one
// and then the other over a single search state.
type optimizer struct {
	cfg Config
}

// Name implements Optimizer.
func (o *optimizer) Name() string { return o.cfg.Method.String() }

// Search implements Optimizer.
func (o *optimizer) Search(target Target) (*Result, error) {
	st, err := newSearchState(target, o.cfg.Objective)
	if err != nil {
		return nil, err
	}
	// The tracer goes on before the initial design, so design
	// measurements are traced too.
	st.sloTime, st.tracer, st.method = o.cfg.MaxTimeSLO, o.cfg.Tracer, o.Name()
	st.emitSearchStart()
	rng := rand.New(rand.NewSource(o.cfg.Seed))
	switch o.cfg.Method {
	case MethodNaiveBO:
		return o.searchNaive(st, rng)
	case MethodAugmentedBO:
		return o.searchAugmented(st, rng)
	case MethodHybridBO:
		return o.searchHybrid(st, rng)
	default:
		return o.searchRandom(st, rng)
	}
}
