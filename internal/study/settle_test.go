package study

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/lowlevel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// runToEndConfigs are the study's searches with no stopping rule, one per
// method: the ones settledSearch settles.
var runToEndConfigs = []MethodConfig{
	{Method: MethodNaive, EIStop: -1},
	{Method: MethodAugmented, Delta: -1},
	{Method: MethodHybrid, Delta: -1},
	{Method: MethodRandom},
}

// summaryJSON renders a summary the way the run cache stores it.
func summaryJSON(t *testing.T, s *RunSummary) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSettledSummaryMatchesFullSearch: for every search with no stopping
// rule, the summary RunSearch derives from the settled search is, byte
// for byte as JSON, the summary of the same search run to its end on a
// bare target. -short keeps every third workload.
func TestSettledSummaryMatchesFullSearch(t *testing.T) {
	r := NewRunner(sim.New(cloud.DefaultCatalog()), WithoutRunCache())
	ws := r.Workloads()
	stride := 1
	if testing.Short() {
		stride = 3
	}
	type job struct {
		mc        MethodConfig
		w         workloads.Workload
		objective core.Objective
		seed      int64
	}
	var jobs []job
	for _, mc := range runToEndConfigs {
		if !mc.runsToEnd() {
			t.Fatalf("%s: runsToEnd = false, want true", mc.Label())
		}
		for _, objective := range []core.Objective{core.MinimizeTime, core.MinimizeCost} {
			for wi := 0; wi < len(ws); wi += stride {
				for seed := int64(0); seed < 2; seed++ {
					jobs = append(jobs, job{mc, ws[wi], objective, seed})
				}
			}
		}
	}
	var cut atomic.Int64 // searches that ended before measuring every candidate
	err := r.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		got, err := r.RunSearch(j.mc, j.w, j.objective, j.seed)
		if err != nil {
			return err
		}
		opt, err := j.mc.Build(j.objective, j.seed)
		if err != nil {
			return err
		}
		res, err := opt.Search(r.Simulator().NewTarget(j.w, j.seed))
		if err != nil {
			return err
		}
		truth, err := r.TruthValues(j.w, j.objective)
		if err != nil {
			return err
		}
		optIdx, err := stats.ArgMin(truth)
		if err != nil {
			return err
		}
		want := summarize(res, 0, truth, optIdx, j.w.ID(), j.seed)
		if g, w := summaryJSON(t, got), summaryJSON(t, want); g != w {
			return fmt.Errorf("%s on %s, %s, seed %d: settled summary differs from the full search's\n got %s\nwant %s",
				j.mc.Label(), j.w.ID(), j.objective, j.seed, g, w)
		}
		if got.StepOptimal < got.Measurements {
			cut.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Most searches measure the optimum before their last step; if none
	// did, the settle rule was never exercised.
	if n := cut.Load(); n < int64(len(jobs))/2 {
		t.Fatalf("only %d of %d searches measured the optimum before their last step", n, len(jobs))
	}
}

// fakeTarget is a small catalog with the objective values fakeValues,
// and at most one candidate, reject, whose measurement core rejects: how
// names the rejection. log records every Measure call.
type fakeTarget struct {
	reject int
	how    string
	log    []int
}

// The rejections a fakeTarget plants: a Measure error, an outcome
// ValidateOutcome rejects, and a zero cost, which ValidateOutcome lets
// through and the objective check rejects.
var rejections = []string{"error", "invalid", "zero-cost"}

func newFakeTarget(reject int, how string) *fakeTarget {
	return &fakeTarget{reject: reject, how: how}
}

func (f *fakeTarget) NumCandidates() int       { return len(fakeValues) }
func (f *fakeTarget) Features(i int) []float64 { return []float64{float64(i), float64(i % 3)} }
func (f *fakeTarget) Name(i int) string        { return fmt.Sprintf("vm-%d", i) }

func (f *fakeTarget) Measure(i int) (core.Outcome, error) {
	f.log = append(f.log, i)
	var m lowlevel.Vector
	m[lowlevel.CPUUser] = 50
	m[lowlevel.IOWait] = 10
	m[lowlevel.TaskCount] = 8
	m[lowlevel.MemCommit] = 40 + fakeValues[i]
	m[lowlevel.DiskUtil] = 20
	m[lowlevel.DiskAwait] = 6
	out := core.Outcome{TimeSec: fakeValues[i], CostUSD: fakeValues[i], Metrics: m}
	if i == f.reject {
		switch f.how {
		case "error":
			return core.Outcome{}, errors.New("planted measurement failure")
		case "invalid":
			out.CostUSD = -1
		case "zero-cost":
			out.CostUSD = 0
		}
	}
	return out, nil
}

// fakeValues has its optimum, 1, at candidate fakeOptimum, and every
// search of runToEndConfigs at seed 0 measures it midway.
var fakeValues = []float64{6.5, 5.2, 4.1, 3.3, 2.2, 1, 2.4, 3.1, 4.6, 5.5}

const fakeOptimum = 5

// settleFake runs mc's search on target through settledSearch and
// summarizes it against fakeValues.
func settleFake(t *testing.T, mc MethodConfig, target core.Target) *RunSummary {
	t.Helper()
	opt, err := mc.Build(core.MinimizeCost, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, rest, err := settledSearch(mc, opt, target, core.MinimizeCost, fakeOptimum)
	if err != nil {
		t.Fatal(err)
	}
	return summarize(res, rest, fakeValues, fakeOptimum, "fake", 0)
}

// fullFake runs mc's search to its end on a bare target and summarizes
// it against fakeValues.
func fullFake(t *testing.T, mc MethodConfig, target core.Target) *RunSummary {
	t.Helper()
	opt, err := mc.Build(core.MinimizeCost, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	return summarize(res, 0, fakeValues, fakeOptimum, "fake", 0)
}

// TestSettleCountsOnlyAcceptedMeasurements plants one measurement core
// rejects. On the optimum, the search never settles and runs to its
// end; on a candidate the search reaches after the optimum, the study
// measures it but does not count it. Either way the settled summary is
// the full search's, and every candidate is measured once.
func TestSettleCountsOnlyAcceptedMeasurements(t *testing.T) {
	for _, mc := range runToEndConfigs {
		clean := newFakeTarget(-1, "")
		after := clean.log[fullFake(t, mc, clean).StepOptimal:]
		if len(after) == 0 {
			t.Fatalf("%s: the optimum is measured last; no candidate follows it", mc.Label())
		}
		for _, reject := range append([]int{fakeOptimum}, after...) {
			for _, how := range rejections {
				want := fullFake(t, mc, newFakeTarget(reject, how))
				settled := newFakeTarget(reject, how)
				got := settleFake(t, mc, settled)
				if g, w := summaryJSON(t, got), summaryJSON(t, want); g != w {
					t.Errorf("%s, %s on candidate %d: settled summary\n got %s\nwant %s", mc.Label(), how, reject, g, w)
				}
				if got.Measurements != len(fakeValues)-1 || len(settled.log) != len(fakeValues) {
					t.Errorf("%s, %s on candidate %d: %d measurements counted of %d Measure calls, want %d of %d",
						mc.Label(), how, reject, got.Measurements, len(settled.log), len(fakeValues)-1, len(fakeValues))
				}
			}
		}
	}
}

// targetProbe is an Optimizer that only records the target it was given.
type targetProbe struct{ got core.Target }

func (p *targetProbe) Name() string { return "probe" }

func (p *targetProbe) Search(target core.Target) (*core.Result, error) {
	p.got = target
	return &core.Result{}, nil
}

// TestSettleWrapsOnlySearchesWithoutStoppingRule: a configuration with a
// stopping rule — including one whose disabled threshold belongs to
// another method — searches its target bare, and ends as a bare search
// does; one without is settled.
func TestSettleWrapsOnlySearchesWithoutStoppingRule(t *testing.T) {
	stopping := []MethodConfig{
		{Method: MethodNaive},
		{Method: MethodNaive, EIStop: 0.1},
		{Method: MethodNaive, Delta: -1},
		{Method: MethodAugmented},
		{Method: MethodAugmented, Delta: 1.1},
		{Method: MethodAugmented, EIStop: -1},
		{Method: MethodHybrid},
		{Method: MethodHybrid, EIStop: -1},
	}
	for _, mc := range stopping {
		target := newFakeTarget(-1, "")
		probe := &targetProbe{}
		if _, _, err := settledSearch(mc, probe, target, core.MinimizeCost, fakeOptimum); err != nil {
			t.Fatal(err)
		}
		if probe.got != core.Target(target) {
			t.Errorf("%+v: searched %T, want the bare target", mc, probe.got)
		}
		want := fullFake(t, mc, newFakeTarget(-1, ""))
		if g, w := summaryJSON(t, settleFake(t, mc, newFakeTarget(-1, ""))), summaryJSON(t, want); g != w {
			t.Errorf("%+v: summary\n got %s\nwant %s", mc, g, w)
		}
	}
	for _, mc := range runToEndConfigs {
		probe := &targetProbe{}
		if _, _, err := settledSearch(mc, probe, newFakeTarget(-1, ""), core.MinimizeCost, fakeOptimum); err != nil {
			t.Fatal(err)
		}
		if _, ok := probe.got.(*settleTarget); !ok {
			t.Errorf("%s: searched %T, want a *settleTarget", mc.Label(), probe.got)
		}
	}
}
