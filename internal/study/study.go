// Package study is the empirical-study harness: it reruns the paper's
// evaluation (Sections II, III, V and VI) on the simulator substrate and
// produces the data series behind every figure — search-cost CDFs, search
// trajectories with interquartile bands, kernel comparisons, stopping-
// criterion sweeps, and the win/draw/loss comparison between Naive BO and
// Augmented BO.
//
// The Runner memoizes every search in a content-addressed run cache
// (internal/runcache): noise-free truth tables and complete RunSummary
// values are computed once per distinct (method, workload, objective,
// seed, substrate) fingerprint, deduplicated in flight, optionally
// persisted to disk, and shared across every experiment. Independent
// (workload, seed) searches fan out over internal/parallel, gated by one
// Runner-wide concurrency semaphore so concurrently running experiments
// cannot oversubscribe the machine.
package study

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Method identifies an optimizer family.
type Method int

// The search methods under study.
const (
	MethodNaive Method = iota + 1
	MethodAugmented
	MethodHybrid
	MethodRandom
)

// String names the method as in the paper's figures.
func (m Method) String() string {
	switch m {
	case MethodNaive:
		return "Naive BO"
	case MethodAugmented:
		return "Augmented BO"
	case MethodHybrid:
		return "Hybrid BO"
	case MethodRandom:
		return "Random"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// toCore maps the method onto internal/core's (zero for an unknown one,
// which core.New rejects).
func (m Method) toCore() core.Method {
	switch m {
	case MethodNaive:
		return core.MethodNaiveBO
	case MethodAugmented:
		return core.MethodAugmentedBO
	case MethodHybrid:
		return core.MethodHybridBO
	case MethodRandom:
		return core.MethodRandomSearch
	default:
		return 0
	}
}

// MethodConfig is a reusable optimizer specification; Build instantiates
// it for a concrete objective and seed.
type MethodConfig struct {
	Method Method

	// Kernel applies to MethodNaive (and Hybrid's opening phase).
	// Zero means Matérn 5/2.
	Kernel kernel.Kind
	// EIStop is Naive BO's stopping fraction; 0 means the CherryPick 10%,
	// negative disables stopping.
	EIStop float64
	// Delta is Augmented BO's Prediction-Delta threshold; 0 means the
	// recommended 1.1, negative disables stopping.
	Delta float64
	// SwitchAfter applies to MethodHybrid; 0 means the default.
	SwitchAfter int
	// Design configures the initial sample; the zero value is the
	// 3-point quasi-random design.
	Design core.DesignConfig
}

// Label renders a short identifier including the stopping threshold.
func (mc MethodConfig) Label() string {
	switch mc.Method {
	case MethodNaive:
		if mc.EIStop > 0 {
			return fmt.Sprintf("%s (EI %g%%)", mc.Method, mc.EIStop*100)
		}
		return mc.Method.String()
	case MethodAugmented:
		if mc.Delta > 0 {
			return fmt.Sprintf("%s (delta %g)", mc.Method, mc.Delta)
		}
		return mc.Method.String()
	default:
		return mc.Method.String()
	}
}

// Build instantiates the optimizer.
func (mc MethodConfig) Build(objective core.Objective, seed int64) (core.Optimizer, error) {
	return core.New(mc.config(objective, seed))
}

// config is the optimizer configuration mc runs with.
func (mc MethodConfig) config(objective core.Objective, seed int64) core.Config {
	return core.Config{
		Method:         mc.Method.toCore(),
		Objective:      objective,
		Kernel:         mc.Kernel,
		EIStopFraction: mc.EIStop,
		DeltaThreshold: mc.Delta,
		SwitchAfter:    mc.SwitchAfter,
		Design:         mc.Design,
		Seed:           seed,
	}
}

// Runner executes searches against the simulator, memoizing every
// result in the run cache and ground truth in a truth-table cache.
type Runner struct {
	sim       *sim.Simulator
	catalog   *cloud.Catalog
	workloads []workloads.Workload

	concurrency int
	// sem is the Runner-wide gate on concurrently executing work items:
	// forEach acquires one slot per item, so experiments running in
	// parallel against the same Runner share one concurrency budget.
	sem chan struct{}

	cacheDir string
	noCache  bool
	warnf    func(format string, args ...any)
	tracer   telemetry.Tracer

	// runs memoizes complete searches; nil when caching is disabled.
	// truth memoizes noise-free truth tables (always on, memory-only;
	// its singleflight also serializes concurrent TruthTable calls).
	runs  *runcache.Store[RunSummary]
	truth *runcache.Store[[]float64]
}

// Option configures a Runner.
type Option func(*Runner)

// WithConcurrency bounds the worker pool (default: GOMAXPROCS).
func WithConcurrency(n int) Option {
	return func(r *Runner) {
		if n > 0 {
			r.concurrency = n
		}
	}
}

// WithWorkloads restricts the study set (default: the full 107 workloads).
func WithWorkloads(ws []workloads.Workload) Option {
	// The copy is non-nil even when ws is empty, so NewRunner keeps an
	// empty set rather than building the default one.
	return func(r *Runner) { r.workloads = append(make([]workloads.Workload, 0, len(ws)), ws...) }
}

// WithCacheDir enables the persistent run-cache tier: completed searches
// are appended to JSONL shards under dir and re-loaded by future
// Runners, so repeated and interrupted studies skip already-computed
// searches. An unreadable directory degrades to memory-only caching
// with a warning — the cache is an optimization, never a hard
// dependency.
func WithCacheDir(dir string) Option {
	return func(r *Runner) { r.cacheDir = dir }
}

// WithoutRunCache disables run memoization entirely (both tiers): every
// RunSearch call executes the search. Truth tables stay cached — they
// are derived data, identical either way.
func WithoutRunCache() Option {
	return func(r *Runner) { r.noCache = true }
}

// WithWarnf routes cache warnings (default: os.Stderr).
func WithWarnf(fn func(format string, args ...any)) Option {
	return func(r *Runner) {
		if fn != nil {
			r.warnf = fn
		}
	}
}

// WithTracer streams study-level telemetry into t: one study_run event
// per RunSearch call (identical whether the search executed or came out
// of the cache) and one cache_lookup event per run-cache access. The
// deterministic projection of this stream — wall fields stripped, sorted
// canonically — is byte-identical between cold and warm runs at any
// concurrency. Inner search events are deliberately not forwarded: a
// warm run never executes the searches, so they could not reproduce.
func WithTracer(t telemetry.Tracer) Option {
	return func(r *Runner) { r.tracer = t }
}

// NewRunner builds a Runner over the simulator's study set, or over the
// set WithWorkloads gives.
func NewRunner(s *sim.Simulator, opts ...Option) *Runner {
	r := &Runner{
		sim:         s,
		catalog:     s.Catalog(),
		concurrency: runtime.GOMAXPROCS(0),
		warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "study: "+format+"\n", args...)
		},
	}
	for _, opt := range opts {
		opt(r)
	}
	if r.workloads == nil {
		r.workloads = s.StudyWorkloads()
	}
	r.sem = make(chan struct{}, r.concurrency)
	r.truth, _ = runcache.Open[[]float64]("", sim.SubstrateVersion) // memory-only Open cannot fail
	if !r.noCache {
		// The truth store is deliberately untraced: warm runs skip
		// summarize entirely, so truth-lookup counts differ between cold
		// and warm runs and would break trace byte-identity.
		runOpts := []runcache.Option{runcache.WithWarnf(r.warnf)}
		if r.tracer != nil {
			runOpts = append(runOpts, runcache.WithTracer(r.tracer))
		}
		runs, err := runcache.Open[RunSummary](r.cacheDir, sim.SubstrateVersion, runOpts...)
		if err != nil {
			r.warnf("disabling persistent tier: %v", err)
			runs, _ = runcache.Open[RunSummary]("", sim.SubstrateVersion, runOpts...)
		}
		r.runs = runs
	}
	return r
}

// CacheStats snapshots the run-cache and truth-table cache counters.
// A Runner with caching disabled reports zero run-cache stats.
func (r *Runner) CacheStats() (runs, truth runcache.Stats) {
	if r.runs != nil {
		runs = r.runs.Stats()
	}
	return runs, r.truth.Stats()
}

// Close releases the persistent cache tier's file handles.
func (r *Runner) Close() error {
	if r.runs != nil {
		return r.runs.Close()
	}
	return nil
}

// Workloads returns the study set.
func (r *Runner) Workloads() []workloads.Workload {
	return append([]workloads.Workload(nil), r.workloads...)
}

// Catalog returns the VM catalog.
func (r *Runner) Catalog() *cloud.Catalog { return r.catalog }

// Simulator returns the underlying simulator.
func (r *Runner) Simulator() *sim.Simulator { return r.sim }

// WorkloadByID finds a study workload.
func (r *Runner) WorkloadByID(id string) (workloads.Workload, error) {
	for _, w := range r.workloads {
		if w.ID() == id {
			return w, nil
		}
	}
	return workloads.Workload{}, fmt.Errorf("study: workload %q not in study set", id)
}

// TruthValues returns the noise-free objective value of w on every VM in
// catalog order, caching the result. The cache's singleflight guarantees
// sim.TruthTable runs once per (workload, objective) even when many
// workers request an uncached key at the same time; callers must treat
// the returned slice as read-only.
func (r *Runner) TruthValues(w workloads.Workload, objective core.Objective) ([]float64, error) {
	key := runcache.Key("truth\x00" + w.ID() + "\x00" + objective.String())
	return r.truth.Do(key, func() ([]float64, error) {
		table, err := r.sim.TruthTable(w)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(table))
		for i, res := range table {
			out := core.Outcome{TimeSec: res.TimeSec, CostUSD: res.CostUSD}
			v, err := out.Value(objective)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return vals, nil
	})
}

// Optimal returns the index and value of the true optimum of w.
func (r *Runner) Optimal(w workloads.Workload, objective core.Objective) (int, float64, error) {
	vals, err := r.TruthValues(w, objective)
	if err != nil {
		return 0, 0, err
	}
	idx, err := stats.ArgMin(vals)
	if err != nil {
		return 0, 0, err
	}
	return idx, vals[idx], nil
}

// RunSummary condenses one search for aggregate reporting. Normalized
// values are true (noise-free) objective values divided by the true
// optimum, so 1.0 means the optimal VM.
type RunSummary struct {
	WorkloadID   string
	Seed         int64
	Measurements int       // search cost actually paid (respects stopping)
	StepOptimal  int       // 1-based step the optimal VM was measured, 0 if never
	FoundNorm    float64   // normalized true value of the returned best VM
	Trajectory   []float64 // normalized best-so-far true value after each step
	StoppedEarly bool
}

// RunSearch returns the summary of one search, executing it only if no
// equivalent search — same canonical fingerprint, from any experiment —
// has run before. Concurrent requests for an uncached fingerprint
// execute once and share the result. The returned summary is owned by
// the cache: callers must not mutate it (in particular Trajectory).
func (r *Runner) RunSearch(mc MethodConfig, w workloads.Workload, objective core.Objective, seed int64) (*RunSummary, error) {
	if r.runs == nil {
		s, err := r.searchUncached(mc, w, objective, seed)
		if err == nil {
			r.traceRun(mc, objective, s)
		}
		return s, err
	}
	key := mc.Fingerprint(w.ID(), objective, seed, sim.SubstrateVersion).Key()
	v, err := r.runs.Do(key, func() (RunSummary, error) {
		s, err := r.searchUncached(mc, w, objective, seed)
		if err != nil {
			return RunSummary{}, err
		}
		return *s, nil
	})
	if err != nil {
		return nil, err
	}
	r.traceRun(mc, objective, &v)
	return &v, nil
}

// traceRun emits one study_run event per RunSearch call. Every field is
// derived from the (cached) summary, so a warm run emits exactly the
// bytes a cold run did — the property the study trace's golden test
// leans on.
func (r *Runner) traceRun(mc MethodConfig, objective core.Objective, s *RunSummary) {
	if r.tracer == nil {
		return
	}
	r.tracer.Emit(telemetry.Event{
		Kind:      telemetry.KindStudyRun,
		Method:    mc.Label(),
		Workload:  s.WorkloadID,
		Seed:      s.Seed,
		Step:      s.Measurements,
		Candidate: -1,
		Value:     s.FoundNorm,
		Aux:       float64(s.StepOptimal),
		Detail:    objective.String(),
		Stopped:   s.StoppedEarly,
	})
}

// searchUncached executes one search and summarizes it against ground
// truth.
func (r *Runner) searchUncached(mc MethodConfig, w workloads.Workload, objective core.Objective, seed int64) (*RunSummary, error) {
	opt, err := mc.Build(objective, seed)
	if err != nil {
		return nil, err
	}
	truth, err := r.TruthValues(w, objective)
	if err != nil {
		return nil, err
	}
	optIdx, err := stats.ArgMin(truth)
	if err != nil {
		return nil, err
	}
	res, rest, err := settledSearch(mc, opt, r.sim.NewTarget(w, seed), objective, optIdx)
	if err != nil {
		return nil, fmt.Errorf("study: %s on %s (seed %d): %w", mc.Label(), w.ID(), seed, err)
	}
	return summarize(res, rest, truth, optIdx, w.ID(), seed), nil
}

// settledSearch runs opt, built from mc, on target. A search with no
// stopping rule is settled (see settleTarget): it ends once it has
// measured candidate optimum, the true optimum, and rest counts the
// measurements the rest of the search would have added. Any other
// search runs as it is, with rest 0.
func settledSearch(mc MethodConfig, opt core.Optimizer, target core.Target, objective core.Objective, optimum int) (res *core.Result, rest int, err error) {
	if !mc.runsToEnd() {
		res, err = opt.Search(target)
		return res, 0, err
	}
	st := &settleTarget{Target: target, objective: objective, optimum: optimum}
	res, err = opt.Search(st)
	if errors.Is(err, errSettled) {
		return res, st.rest(res), nil
	}
	return res, 0, err
}

// runsToEnd reports whether mc builds a search with no stopping rule:
// one that measures every candidate it does not quarantine. It reads the
// thresholds as Fingerprint canonicalizes them, negative meaning off.
func (mc MethodConfig) runsToEnd() bool {
	switch mc.Method {
	case MethodNaive:
		return mc.EIStop < 0
	case MethodAugmented, MethodHybrid:
		return mc.Delta < 0
	case MethodRandom:
		return true
	default:
		return false
	}
}

// errSettled ends a settled search; see settleTarget.
var errSettled = errors.New("study: search settled at the true optimum")

// settleTarget wraps the target of a search with no stopping rule. Once
// such a search has measured the true optimum its summary can only grow:
// every later step leaves the best-so-far value at exactly the optimum,
// and the search goes on until it has measured every candidate it does
// not quarantine. So after core accepts the optimum's measurement, the
// next Measure aborts the search with errSettled, sparing the surrogate
// fits that would pick the rest, and rest counts the measurements the
// search would still have made.
type settleTarget struct {
	core.Target
	objective core.Objective
	optimum   int
	settled   bool
}

// Measure implements core.Target.
func (t *settleTarget) Measure(i int) (core.Outcome, error) {
	if t.settled {
		return core.Outcome{}, core.Fatal(errSettled)
	}
	out, merr := t.Target.Measure(i)
	if i == t.optimum {
		_, err := core.AcceptMeasurement(t.Target, i, t.objective, out, merr)
		t.settled = err == nil
	}
	return out, merr
}

// rest measures, through the wrapped target, every candidate the settled
// search res neither measured nor quarantined, and returns how many of
// those measurements core would accept. It measures in catalog order,
// not in the order the search would have, which is exact for a target
// whose outcomes do not depend on that order: a simulated measurement
// depends only on the workload, the VM and the trial.
func (t *settleTarget) rest(res *core.Result) int {
	done := make([]bool, t.NumCandidates())
	for _, obs := range res.Observations {
		done[obs.Index] = true
	}
	for _, f := range res.Failures {
		done[f.Index] = true
	}
	n := 0
	for i, d := range done {
		if d {
			continue
		}
		out, merr := t.Target.Measure(i)
		if _, err := core.AcceptMeasurement(t.Target, i, t.objective, out, merr); err == nil {
			n++
		}
	}
	return n
}

// summarize condenses res, followed by rest measurements after the true
// optimum, into a RunSummary against the truth values and their ArgMin
// optIdx.
func summarize(res *core.Result, rest int, truth []float64, optIdx int, workloadID string, seed int64) *RunSummary {
	optVal := truth[optIdx]

	summary := &RunSummary{
		WorkloadID:   workloadID,
		Seed:         seed,
		Measurements: res.NumMeasurements() + rest,
		StepOptimal:  res.MeasuredAtStep(optIdx),
		StoppedEarly: res.StoppedEarly,
	}
	// Best-so-far trajectory in true, normalized units: the observation
	// order is what the optimizer chose; the value credited is the VM's
	// true performance (the paper plots measured medians, which converge
	// to the same thing). Every step after the optimum reads exactly 1.
	best := truth[res.Observations[0].Index]
	summary.Trajectory = make([]float64, summary.Measurements)
	for i, obs := range res.Observations {
		if truth[obs.Index] < best {
			best = truth[obs.Index]
		}
		summary.Trajectory[i] = best / optVal
	}
	for i := len(res.Observations); i < len(summary.Trajectory); i++ {
		summary.Trajectory[i] = 1
	}
	summary.FoundNorm = best / optVal
	return summary
}

// forEach runs fn(i) for i in [0,n) over internal/parallel, gated by the
// Runner-wide semaphore so the total number of in-flight items stays at
// the configured concurrency even when several experiments call in at
// once. Remaining items are skipped after the first failure; the error
// returned is the failed item with the lowest index, which makes error
// reporting deterministic at any worker count.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var failed atomic.Bool
	errs := make([]error, n)
	parallel.Do(n, r.concurrency, func(i int) {
		if failed.Load() {
			return
		}
		r.sem <- struct{}{}
		err := fn(i)
		<-r.sem
		if err != nil {
			errs[i] = err
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// errNoRuns guards aggregations over empty run sets.
var errNoRuns = errors.New("study: no runs to aggregate")
