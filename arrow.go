// Package arrow is the public API of this repository: a Go implementation
// of low-level augmented Bayesian optimization for finding the best cloud
// VM, reproducing Hsu, Nair, Freeh and Menzies, "Low-Level Augmented
// Bayesian Optimization for Finding the Best Cloud VM" (ICDCS 2018,
// arXiv:1712.10081).
//
// The package exposes three sequential model-based optimizers over a
// finite catalog of VM types:
//
//   - MethodNaiveBO — the CherryPick baseline: Gaussian-process surrogate
//     (Matérn 5/2 by default), Expected-Improvement acquisition, and an
//     EI-fraction stopping rule;
//   - MethodAugmentedBO — Arrow: an Extra-Trees surrogate over the
//     instance space augmented with the low-level performance metrics of
//     every measured VM, a Prediction-Delta acquisition, and a
//     Prediction-Delta stopping rule;
//   - MethodHybridBO — Naive BO's strong start followed by Augmented BO's
//     strong finish.
//
// Anything that can run a workload on a candidate and report its time,
// cost and low-level metrics can implement Target. A simulator-backed
// Target over the paper's 18 AWS VM types and 107 big-data workloads is
// built in (NewSimulatedTarget), so the whole evaluation is reproducible
// on a laptop:
//
//	target, _ := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
//	opt, _ := arrow.New(
//		arrow.WithMethod(arrow.MethodAugmentedBO),
//		arrow.WithObjective(arrow.MinimizeCost),
//	)
//	result, _ := opt.Search(target)
//	fmt.Println(result.BestName, result.BestValue)
package arrow

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lowlevel"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Objective selects what a search minimizes.
type Objective int

// The supported objectives.
const (
	// MinimizeTime minimizes execution time.
	MinimizeTime Objective = iota + 1
	// MinimizeCost minimizes deployment cost (time x hourly price).
	MinimizeCost
	// MinimizeTimeCostProduct minimizes the time-cost product, the
	// paper's equal-weight trade-off objective (Section VI-B).
	MinimizeTimeCostProduct
)

// String names the objective.
func (o Objective) String() string { return o.toCore().String() }

// ParseObjective maps an objective's String name or an alias (product,
// timecost), in any case, onto the objective.
func ParseObjective(name string) (Objective, error) {
	switch strings.ToLower(name) {
	case "time":
		return MinimizeTime, nil
	case "cost":
		return MinimizeCost, nil
	case "product", "time-cost-product", "timecost":
		return MinimizeTimeCostProduct, nil
	default:
		return 0, fmt.Errorf("arrow: unknown objective %q", name)
	}
}

func (o Objective) toCore() core.Objective {
	switch o {
	case MinimizeTime:
		return core.MinimizeTime
	case MinimizeCost:
		return core.MinimizeCost
	case MinimizeTimeCostProduct:
		return core.MinimizeTimeCostProduct
	default:
		return 0
	}
}

// Method selects the search algorithm.
type Method int

// The supported methods.
const (
	// MethodNaiveBO is the CherryPick-style GP + EI baseline.
	MethodNaiveBO Method = iota + 1
	// MethodAugmentedBO is the paper's contribution.
	MethodAugmentedBO
	// MethodHybridBO switches from Naive to Augmented after a few
	// measurements.
	MethodHybridBO
	// MethodRandomSearch is a calibration baseline.
	MethodRandomSearch
)

// String names the method.
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

// ParseMethod maps a method's String name or an alias (naive,
// augmented, arrow, hybrid, random), in any case, onto the method.
func ParseMethod(name string) (Method, error) {
	switch strings.ToLower(name) {
	case "naive-bo", "naive":
		return MethodNaiveBO, nil
	case "augmented-bo", "augmented", "arrow":
		return MethodAugmentedBO, nil
	case "hybrid-bo", "hybrid":
		return MethodHybridBO, nil
	case "random-search", "random":
		return MethodRandomSearch, nil
	default:
		return 0, fmt.Errorf("arrow: unknown method %q", name)
	}
}

// Kernel selects the GP covariance family for MethodNaiveBO.
type Kernel int

// The supported kernels (Section III-B of the paper).
const (
	KernelRBF Kernel = iota + 1
	KernelMatern12
	KernelMatern32
	KernelMatern52
)

func (k Kernel) toInternal() kernel.Kind {
	switch k {
	case KernelRBF:
		return kernel.RBF
	case KernelMatern12:
		return kernel.Matern12
	case KernelMatern32:
		return kernel.Matern32
	case KernelMatern52:
		return kernel.Matern52
	default:
		return 0
	}
}

// String names the kernel.
func (k Kernel) String() string { return k.toInternal().String() }

// ParseKernel maps a kernel's short name (rbf, matern12, matern32,
// matern52), in any case, onto the kernel.
func ParseKernel(name string) (Kernel, error) {
	switch strings.ToLower(name) {
	case "rbf":
		return KernelRBF, nil
	case "matern12":
		return KernelMatern12, nil
	case "matern32":
		return KernelMatern32, nil
	case "matern52":
		return KernelMatern52, nil
	default:
		return 0, fmt.Errorf("arrow: unknown kernel %q", name)
	}
}

// Outcome is one measurement of a candidate.
type Outcome struct {
	// TimeSec is the workload's execution time in seconds.
	TimeSec float64 `json:"time_sec"`
	// CostUSD is the deployment cost of the run.
	CostUSD float64 `json:"cost_usd"`
	// Metrics holds the low-level performance metrics collected during
	// the run, in MetricNames order. Leave nil if unavailable — Naive BO
	// ignores it; Augmented BO requires it.
	Metrics []float64 `json:"metrics,omitempty"`
}

// MetricNames returns the names of the low-level metric vector entries,
// in the order Outcome.Metrics must use.
func MetricNames() []string { return lowlevel.Names() }

// NumMetrics is the required length of Outcome.Metrics.
const NumMetrics = int(lowlevel.NumMetrics)

// Target abstracts the system under optimization: a finite catalog of
// candidates (VM types), each with a numeric feature encoding, that can
// be measured at a cost.
type Target interface {
	// NumCandidates returns the catalog size.
	NumCandidates() int
	// Features returns the instance-space encoding of candidate i. All
	// candidates must share one dimensionality.
	Features(i int) []float64
	// Name returns a human-readable name for candidate i.
	Name(i int) string
	// Measure runs the workload on candidate i.
	Measure(i int) (Outcome, error)
}

// Observation is one measured candidate of a finished search.
type Observation struct {
	Index   int     `json:"index"`
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Outcome Outcome `json:"outcome"`
}

// Failure documents one candidate the search gave up on: its measurement
// failed (or kept producing invalid outcomes) even after the configured
// retries, and the candidate was quarantined so the search could continue.
type Failure struct {
	// Index / Name identify the candidate.
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Attempts is how many Measure calls were made (1 without WithRetry).
	Attempts int `json:"attempts"`
	// FromDesign is true when the failure hit the initial design; the
	// failed point was replaced by another quasi-random pick.
	FromDesign bool `json:"from_design,omitempty"`
	// Reason is the final error, as text for serialization.
	Reason string `json:"error"`
	// Err is the final error; errors.Is/As work against it.
	Err error `json:"-"`
}

// Result is a completed (or salvaged) search.
type Result struct {
	// Method that produced the result.
	Method string `json:"method"`
	// Observations in measurement order; its length is the search cost.
	Observations []Observation `json:"observations"`
	// BestIndex / BestName / BestValue identify the best VM found.
	// BestIndex is -1 (and BestName empty) only when nothing at all was
	// measured.
	BestIndex int     `json:"best_index"`
	BestName  string  `json:"best_name"`
	BestValue float64 `json:"best_value"`
	// StoppedEarly reports whether the stopping rule fired before the
	// catalog was exhausted, and StopReason says why the search ended.
	StoppedEarly bool   `json:"stopped_early"`
	StopReason   string `json:"stop_reason,omitempty"`
	// SLOSatisfied is false only when WithMaxTimeSLO was set and no
	// measured VM met it; Best* then point at the fastest VM observed.
	SLOSatisfied bool `json:"slo_satisfied"`
	// Failures lists the quarantined candidates. A non-empty list does
	// not make the result partial: the search completed over the
	// candidates that survived.
	Failures []Failure `json:"failures,omitempty"`
	// Partial is true when the search could not run to its own stopping
	// rule — canceled, aborted by a fatal target error, or every
	// candidate failed. Search then returns this result alongside a
	// non-nil error, so the completed observations are never lost.
	Partial bool `json:"partial,omitempty"`
}

// NumMeasurements returns the search cost.
func (r *Result) NumMeasurements() int { return len(r.Observations) }

// Optimizer runs searches. Construct with New; a zero Optimizer is not
// usable.
type Optimizer struct {
	method Method
	cfg    config
}

type config struct {
	method          Method
	objective       Objective
	kernel          Kernel
	autoKernel      bool
	ard             bool
	acquisition     Acquisition
	eiStop          float64
	delta           float64
	switchAfter     int
	seed            int64
	numInitial      int
	initialIndices  []int
	designKind      Design
	maxMeasurements int
	disableLowLevel bool
	warmStart       []core.PriorObservation
	maxTimeSLO      float64
	retry           *RetryPolicy
	measureTimeout  time.Duration
	tracer          telemetry.Tracer
}

// Option configures an Optimizer.
type Option func(*config) error

// WithObjective sets the objective (default MinimizeCost, the paper's
// harder setting).
func WithObjective(o Objective) Option {
	return func(c *config) error {
		if o.toCore() == 0 {
			return fmt.Errorf("arrow: invalid objective %d", int(o))
		}
		c.objective = o
		return nil
	}
}

// WithKernel sets Naive BO's GP kernel (default Matérn 5/2).
func WithKernel(k Kernel) Option {
	return func(c *config) error {
		if k.toInternal() == 0 {
			return fmt.Errorf("arrow: invalid kernel %d", int(k))
		}
		c.kernel = k
		return nil
	}
}

// WithEIStopFraction sets Naive BO's stopping rule: stop when the maximum
// Expected Improvement drops below this fraction of the incumbent
// (default 0.10, per CherryPick). Pass a negative value to disable.
func WithEIStopFraction(f float64) Option {
	return func(c *config) error {
		if f > 1 {
			return fmt.Errorf("arrow: EI stop fraction %v > 1", f)
		}
		c.eiStop = f
		return nil
	}
}

// WithDeltaThreshold sets Augmented BO's Prediction-Delta stopping
// threshold (default 1.1, the paper's recommendation). The search stops
// when no unmeasured VM is predicted better than threshold x incumbent.
// Pass a negative value to disable.
func WithDeltaThreshold(t float64) Option {
	return func(c *config) error {
		c.delta = t
		return nil
	}
}

// WithSwitchAfter sets Hybrid BO's handover point in measurements
// (default 4).
func WithSwitchAfter(n int) Option {
	return func(c *config) error {
		if n < 2 {
			return fmt.Errorf("arrow: switch-after %d < 2", n)
		}
		c.switchAfter = n
		return nil
	}
}

// WithSeed seeds the initial design and surrogate randomization; searches
// with the same seed and target are reproducible.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithNumInitial sets the initial quasi-random design size (default 3).
func WithNumInitial(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("arrow: initial design size %d < 1", n)
		}
		c.numInitial = n
		return nil
	}
}

// WithInitialCandidates fixes the initial design to specific candidate
// indices, overriding the quasi-random sample (the paper's Section III-C
// sensitivity experiment).
func WithInitialCandidates(indices ...int) Option {
	return func(c *config) error {
		if len(indices) == 0 {
			return errors.New("arrow: empty initial design")
		}
		c.initialIndices = append([]int(nil), indices...)
		return nil
	}
}

// WithMaxMeasurements caps the search cost (default: the whole catalog).
func WithMaxMeasurements(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("arrow: max measurements %d < 1", n)
		}
		c.maxMeasurements = n
		return nil
	}
}

// WithMethod selects the algorithm (default MethodAugmentedBO).
func WithMethod(m Method) Option {
	return func(c *config) error {
		switch m {
		case MethodNaiveBO, MethodAugmentedBO, MethodHybridBO, MethodRandomSearch:
		default:
			return fmt.Errorf("arrow: invalid method %d", int(m))
		}
		c.method = m
		return nil
	}
}

// New builds an Optimizer.
func New(opts ...Option) (*Optimizer, error) {
	cfg := config{
		objective: MinimizeCost,
		kernel:    KernelMatern52,
		method:    MethodAugmentedBO,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	// Validate eagerly by building the underlying optimizer once.
	if _, err := buildCore(cfg); err != nil {
		return nil, err
	}
	return &Optimizer{method: cfg.method, cfg: cfg}, nil
}

// Method returns the configured search method.
func (o *Optimizer) Method() Method { return o.cfg.method }

// Objective returns the configured objective.
func (o *Optimizer) Objective() Objective { return o.cfg.objective }

func (cfg config) designConfig() core.DesignConfig {
	if len(cfg.initialIndices) > 0 {
		return core.DesignConfig{
			Kind:       core.DesignFixed,
			NumInitial: len(cfg.initialIndices),
			Fixed:      cfg.initialIndices,
		}
	}
	return core.DesignConfig{Kind: cfg.designKind.toCore(), NumInitial: cfg.numInitial}
}

func buildCore(cfg config) (core.Optimizer, error) {
	switch cfg.method {
	case MethodNaiveBO:
		return core.NewNaiveBO(core.NaiveBOConfig{
			Objective:       cfg.objective.toCore(),
			Kernel:          cfg.kernel.toInternal(),
			AutoKernel:      cfg.autoKernel,
			ARD:             cfg.ard,
			Acquisition:     cfg.acquisition.toInternal(),
			EIStopFraction:  cfg.eiStop,
			MaxTimeSLO:      cfg.maxTimeSLO,
			MaxMeasurements: cfg.maxMeasurements,
			Design:          cfg.designConfig(),
			Seed:            cfg.seed,
			Tracer:          cfg.tracer,
		})
	case MethodAugmentedBO:
		return core.NewAugmentedBO(core.AugmentedBOConfig{
			Objective:       cfg.objective.toCore(),
			DeltaThreshold:  cfg.delta,
			MaxTimeSLO:      cfg.maxTimeSLO,
			MaxMeasurements: cfg.maxMeasurements,
			Design:          cfg.designConfig(),
			Seed:            cfg.seed,
			DisableLowLevel: cfg.disableLowLevel,
			WarmStart:       cfg.warmStart,
			Tracer:          cfg.tracer,
		})
	case MethodHybridBO:
		return core.NewHybridBO(core.HybridBOConfig{
			Naive: core.NaiveBOConfig{
				Objective:   cfg.objective.toCore(),
				Kernel:      cfg.kernel.toInternal(),
				AutoKernel:  cfg.autoKernel,
				ARD:         cfg.ard,
				Acquisition: cfg.acquisition.toInternal(),
				MaxTimeSLO:  cfg.maxTimeSLO,
				Design:      cfg.designConfig(),
				Seed:        cfg.seed,
			},
			Augmented: core.AugmentedBOConfig{
				Objective:       cfg.objective.toCore(),
				DeltaThreshold:  cfg.delta,
				MaxTimeSLO:      cfg.maxTimeSLO,
				MaxMeasurements: cfg.maxMeasurements,
				Seed:            cfg.seed,
				DisableLowLevel: cfg.disableLowLevel,
				WarmStart:       cfg.warmStart,
			},
			SwitchAfter: cfg.switchAfter,
			Tracer:      cfg.tracer,
		})
	case MethodRandomSearch:
		return core.NewRandomSearch(core.RandomSearchConfig{
			Objective:       cfg.objective.toCore(),
			MaxMeasurements: cfg.maxMeasurements,
			Seed:            cfg.seed,
			Tracer:          cfg.tracer,
		})
	default:
		return nil, fmt.Errorf("arrow: invalid method %d", int(cfg.method))
	}
}

// Search runs the configured optimizer against target.
//
// When the search cannot run to completion — canceled, aborted by a
// fatal measurement error, or every candidate quarantined — Search
// returns BOTH a non-nil *Result carrying every completed observation
// (with Partial set) and a non-nil error saying why. Callers that only
// check the error can stay unchanged; callers on an expensive target
// should salvage the partial result.
func (o *Optimizer) Search(target Target) (*Result, error) {
	return o.searchTarget(target, nil)
}

// searchTarget wraps target with the configured measurement middleware
// (timeout, then retries), then with outer (cancellation/progress), runs
// the core optimizer, and converts the result. outer is applied last so
// cancellation checks and progress callbacks see exactly the measurements
// the search loop accepts.
func (o *Optimizer) searchTarget(target Target, outer func(Target) Target) (*Result, error) {
	opt, err := buildCore(o.cfg)
	if err != nil {
		return nil, err
	}
	wrapped := o.cfg.wrapTarget(target)
	if outer != nil {
		wrapped = outer(wrapped)
	}
	res, err := opt.Search(&targetAdapter{t: wrapped})
	if res == nil {
		// Configuration-level failure before any measurement.
		return nil, err
	}
	return convertResult(res, target), err
}

// convertResult translates the internal result to the public one.
func convertResult(res *core.Result, target Target) *Result {
	out := &Result{
		Method:       res.Method,
		BestIndex:    res.BestIndex,
		BestValue:    res.BestValue,
		StoppedEarly: res.StoppedEarly,
		StopReason:   res.StopReason,
		SLOSatisfied: res.SLOSatisfied,
		Partial:      res.Partial,
	}
	if res.BestIndex >= 0 {
		out.BestName = target.Name(res.BestIndex)
	}
	for _, obs := range res.Observations {
		out.Observations = append(out.Observations, Observation{
			Index: obs.Index,
			Name:  target.Name(obs.Index),
			Value: obs.Value,
			Outcome: Outcome{
				TimeSec: obs.Outcome.TimeSec,
				CostUSD: obs.Outcome.CostUSD,
				Metrics: obs.Outcome.Metrics.Slice(),
			},
		})
	}
	for _, f := range res.Failures {
		attempts := 1
		var ex *RetryExhaustedError
		if errors.As(f.Err, &ex) {
			attempts = ex.Attempts
		}
		reason := ""
		if f.Err != nil {
			reason = f.Err.Error()
		}
		out.Failures = append(out.Failures, Failure{
			Index:      f.Index,
			Name:       target.Name(f.Index),
			Attempts:   attempts,
			FromDesign: f.FromDesign,
			Reason:     reason,
			Err:        f.Err,
		})
	}
	return out
}

// targetAdapter bridges the public Target to the internal one, validating
// the metrics vector on the way in.
type targetAdapter struct {
	t Target
}

var _ core.Target = (*targetAdapter)(nil)

func (a *targetAdapter) NumCandidates() int       { return a.t.NumCandidates() }
func (a *targetAdapter) Features(i int) []float64 { return a.t.Features(i) }
func (a *targetAdapter) Name(i int) string        { return a.t.Name(i) }

func (a *targetAdapter) Measure(i int) (core.Outcome, error) {
	out, err := a.t.Measure(i)
	if err != nil {
		return core.Outcome{}, err
	}
	var metrics lowlevel.Vector
	if out.Metrics != nil {
		metrics, err = lowlevel.FromSlice(out.Metrics)
		if err != nil {
			return core.Outcome{}, fmt.Errorf("arrow: candidate %s returned a bad metric vector: %w", a.t.Name(i), err)
		}
	}
	return core.Outcome{TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: metrics}, nil
}

// VMInfo describes one VM type of the built-in simulated catalog.
type VMInfo struct {
	Name       string
	VCPUs      int
	MemGiB     float64
	PricePerHr float64
	Features   []float64
}

// CatalogVMs lists the built-in 18-type AWS catalog used by the simulated
// targets, in candidate-index order.
func CatalogVMs() []VMInfo {
	cat := cloud.DefaultCatalog()
	out := make([]VMInfo, cat.Len())
	for i := 0; i < cat.Len(); i++ {
		vm := cat.VM(i)
		out[i] = VMInfo{
			Name:       vm.Name(),
			VCPUs:      vm.VCPUs,
			MemGiB:     vm.MemGiB,
			PricePerHr: vm.PricePerHr,
			Features:   vm.Encode(),
		}
	}
	return out
}

// WorkloadIDs lists the built-in study workloads ("app/system/size"),
// the paper's 107-workload set.
func WorkloadIDs() []string {
	s := sim.New(cloud.DefaultCatalog())
	ws := s.StudyWorkloads()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.ID()
	}
	return out
}

// NewSimulatedTarget builds a Target backed by the built-in simulator for
// the named study workload. The trial index seeds the measurement noise:
// different trials model independent deployments under different cloud
// interference, while equal trials reproduce exactly.
func NewSimulatedTarget(workloadID string, trial int64) (Target, error) {
	s := sim.New(cloud.DefaultCatalog())
	w, err := workloads.ByID(workloadID)
	if err != nil {
		return nil, err
	}
	if !s.RunsEverywhere(w) {
		return nil, fmt.Errorf("arrow: workload %q is not runnable on every VM (excluded from the study set)", workloadID)
	}
	return &simTargetAdapter{t: s.NewTarget(w, trial)}, nil
}

// simTargetAdapter exposes the internal simulator target as a public one.
type simTargetAdapter struct {
	t *sim.Target
}

var _ Target = (*simTargetAdapter)(nil)

func (a *simTargetAdapter) NumCandidates() int       { return a.t.NumCandidates() }
func (a *simTargetAdapter) Features(i int) []float64 { return a.t.Features(i) }
func (a *simTargetAdapter) Name(i int) string        { return a.t.Name(i) }

func (a *simTargetAdapter) Measure(i int) (Outcome, error) {
	out, err := a.t.Measure(i)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics.Slice()}, nil
}
