package arrow

import (
	"errors"
	"fmt"

	"repro/internal/acquisition"
	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lowlevel"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// This file holds the extensions beyond the paper's core method: Naive-BO
// acquisition variants, automatic kernel selection, the low-level ablation
// switch, historical warm starting (the paper's stated future work), and
// the surrogate explanation report.

// Acquisition selects Naive BO's acquisition function.
type Acquisition int

// The supported acquisitions for MethodNaiveBO. Augmented BO always uses
// Prediction Delta.
const (
	// AcquisitionEI is Expected Improvement (CherryPick's choice and the
	// default).
	AcquisitionEI Acquisition = iota + 1
	// AcquisitionPI is Probability of Improvement.
	AcquisitionPI
	// AcquisitionUCB is the GP upper-confidence-bound rule.
	AcquisitionUCB
	// AcquisitionMES is max-value entropy search (Wang & Jegelka,
	// ICML'17), the information-theoretic alternative the paper's
	// Section III-A cites.
	AcquisitionMES
)

func (a Acquisition) toInternal() acquisition.Kind {
	switch a {
	case AcquisitionEI:
		return acquisition.ExpectedImprovement
	case AcquisitionPI:
		return acquisition.ProbabilityOfImprovement
	case AcquisitionUCB:
		return acquisition.UpperConfidenceBound
	case AcquisitionMES:
		return acquisition.EntropySearch
	default:
		return 0
	}
}

// String names the acquisition.
func (a Acquisition) String() string {
	k := a.toInternal()
	if k == 0 {
		return fmt.Sprintf("Acquisition(%d)", int(a))
	}
	return k.String()
}

// WithAcquisition sets Naive BO's acquisition function (default EI).
// The EI-fraction stopping rule only applies under AcquisitionEI.
func WithAcquisition(a Acquisition) Option {
	return func(c *config) error {
		if a.toInternal() == 0 {
			return fmt.Errorf("arrow: invalid acquisition %d", int(a))
		}
		c.Acquisition = a.toInternal()
		return nil
	}
}

// WithAutoKernel makes Naive BO select the GP kernel family per fit by log
// marginal likelihood instead of using a fixed kernel — the "automatic
// model selection" alternative the paper's Section III-B discusses.
func WithAutoKernel() Option {
	return func(c *config) error {
		c.AutoKernel = true
		return nil
	}
}

// WithARD enables per-dimension GP length scales (automatic relevance
// determination) for Naive BO, refined by coordinate ascent on the log
// marginal likelihood.
func WithARD() Option {
	return func(c *config) error {
		c.ARD = true
		return nil
	}
}

// WithoutLowLevelMetrics is the ablation switch: Augmented BO keeps its
// pairwise Extra-Trees surrogate but sees zeroed low-level metrics,
// isolating how much of Arrow's advantage comes from the augmentation.
func WithoutLowLevelMetrics() Option {
	return func(c *config) error {
		c.DisableLowLevel = true
		return nil
	}
}

// PriorRun is one historical measurement used to warm-start Augmented BO.
type PriorRun struct {
	// Features is the candidate's instance-space encoding, which must use
	// the same encoding as the target under search.
	Features []float64
	// Metrics is the low-level vector collected during the historical
	// run, in MetricNames order (nil means all-zero).
	Metrics []float64
	// Value is the historical objective value; must be positive.
	Value float64
}

// WithWarmStart seeds Augmented BO's surrogate with observations from a
// previous run of a related workload — the paper's stated future work.
// History shapes early predictions but is never counted as a measurement.
func WithWarmStart(history ...PriorRun) Option {
	return func(c *config) error {
		if len(history) == 0 {
			return errors.New("arrow: empty warm-start history")
		}
		priors := make([]core.PriorObservation, len(history))
		for i, h := range history {
			var metrics lowlevel.Vector
			if h.Metrics != nil {
				var err error
				metrics, err = lowlevel.FromSlice(h.Metrics)
				if err != nil {
					return fmt.Errorf("arrow: warm-start run %d: %w", i, err)
				}
			}
			priors[i] = core.PriorObservation{
				Features: append([]float64(nil), h.Features...),
				Metrics:  metrics,
				Value:    h.Value,
			}
		}
		c.WarmStart = priors
		return nil
	}
}

// FeatureWeight is one column of the surrogate explanation.
type FeatureWeight struct {
	// Name identifies the pair-row column: "src:f<i>" / "dst:f<i>" for
	// instance features and "src:<metric>" for low-level metrics.
	Name string
	// Fraction is the share of surrogate split nodes using this column;
	// fractions sum to 1.
	Fraction float64
}

// Explain refits the Augmented-BO surrogate on a finished search over
// target and reports which feature columns it splits on — showing whether
// the model actually leans on the low-level metrics. It errors for
// non-augmented optimizers.
func (o *Optimizer) Explain(target Target, result *Result) ([]FeatureWeight, error) {
	if o.cfg.Method != MethodAugmentedBO {
		return nil, fmt.Errorf("arrow: Explain requires MethodAugmentedBO, have %v", o.cfg.Method)
	}
	coreRes := &core.Result{Objective: o.cfg.Objective}
	for _, obs := range result.Observations {
		var metrics lowlevel.Vector
		if obs.Outcome.Metrics != nil {
			var err error
			metrics, err = lowlevel.FromSlice(obs.Outcome.Metrics)
			if err != nil {
				return nil, fmt.Errorf("arrow: observation %s: %w", obs.Name, err)
			}
		}
		coreRes.Observations = append(coreRes.Observations, core.Observation{
			Index: obs.Index,
			Value: obs.Value,
			Outcome: core.Outcome{
				TimeSec: obs.Outcome.TimeSec,
				CostUSD: obs.Outcome.CostUSD,
				Metrics: metrics,
			},
		})
	}
	imps, err := core.ExplainSurrogate(o.cfg.Config, &targetAdapter{t: target}, coreRes)
	if err != nil {
		return nil, err
	}
	out := make([]FeatureWeight, len(imps))
	for i, imp := range imps {
		out[i] = FeatureWeight{Name: imp.Name, Fraction: imp.Fraction}
	}
	return out, nil
}

// Design selects the initial-sampling strategy (Section III-C studies how
// sensitive BO is to this choice).
type Design int

// The initial-design strategies.
const (
	// DesignMaxMin greedily picks maximally distant candidates — the
	// CherryPick-prescribed quasi-random design and the default.
	DesignMaxMin Design = iota + 1
	// DesignRandom samples uniformly without replacement.
	DesignRandom
	// DesignSobol snaps Sobol' low-discrepancy points (the paper's
	// reference [25]) to the nearest unused candidates.
	DesignSobol
)

func (d Design) toCore() core.DesignKind {
	switch d {
	case DesignMaxMin:
		return core.DesignQuasiRandom
	case DesignRandom:
		return core.DesignUniform
	case DesignSobol:
		return core.DesignSobol
	default:
		return 0
	}
}

// String names the design.
func (d Design) String() string {
	k := d.toCore()
	if k == 0 {
		return fmt.Sprintf("Design(%d)", int(d))
	}
	return k.String()
}

// WithInitialDesign selects the initial-sampling strategy (default
// DesignMaxMin). Overridden by WithInitialCandidates.
func WithInitialDesign(d Design) Option {
	return func(c *config) error {
		if d.toCore() == 0 {
			return fmt.Errorf("arrow: invalid design %d", int(d))
		}
		if c.Design.Kind != core.DesignFixed {
			c.Design.Kind = d.toCore()
		}
		return nil
	}
}

// WithMaxTimeSLO constrains the search to VMs whose execution time stays
// within the SLO (seconds) — CherryPick's original "minimize cost subject
// to a performance constraint" formulation. Naive BO gains a second GP on
// execution time and a constrained-EI acquisition; Augmented BO gains a
// second pairwise time model. If nothing meets the SLO the result reports
// SLOSatisfied=false and points at the fastest VM observed.
func WithMaxTimeSLO(seconds float64) Option {
	return func(c *config) error {
		if seconds <= 0 {
			return fmt.Errorf("arrow: time SLO %v must be positive", seconds)
		}
		c.MaxTimeSLO = seconds
		return nil
	}
}

// NewSimulatedClusterTarget builds a Target over cluster configurations
// (VM type x node count) for the named study workload, the joint search
// space CherryPick originally targeted. With the default node counts
// {2, 4, 6, 8} the catalog holds 72 candidates. The trial index seeds the
// measurement noise as in NewSimulatedTarget.
func NewSimulatedClusterTarget(workloadID string, trial int64, nodeCounts ...int) (Target, error) {
	single := sim.New(cloud.DefaultCatalog())
	w, err := workloads.ByID(workloadID)
	if err != nil {
		return nil, err
	}
	catalog, err := cluster.NewCatalog(single.Catalog(), nodeCounts)
	if err != nil {
		return nil, err
	}
	cs := cluster.NewSimulator(single)
	for i := 0; i < catalog.Len(); i++ {
		if !cs.Feasible(w, catalog.Config(i)) {
			return nil, fmt.Errorf("arrow: workload %q cannot run on %s", workloadID, catalog.Config(i).Name())
		}
	}
	return &clusterTargetAdapter{t: cs.NewTarget(catalog, w, trial)}, nil
}

// clusterTargetAdapter exposes the internal cluster target publicly.
type clusterTargetAdapter struct {
	t *cluster.Target
}

var _ Target = (*clusterTargetAdapter)(nil)

func (a *clusterTargetAdapter) NumCandidates() int       { return a.t.NumCandidates() }
func (a *clusterTargetAdapter) Features(i int) []float64 { return a.t.Features(i) }
func (a *clusterTargetAdapter) Name(i int) string        { return a.t.Name(i) }

func (a *clusterTargetAdapter) Measure(i int) (Outcome, error) {
	out, err := a.t.Measure(i)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics.Slice()}, nil
}
