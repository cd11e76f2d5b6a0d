package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	arrow "repro"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/study"
	"repro/internal/workloads"
)

// studyWorkloadIDs is study-cold's fixed workload subset: batch and
// streaming systems, small to large inputs.
var studyWorkloadIDs = []string{
	"pearson/spark2.1/medium",
	"scan/hadoop2.7/medium",
	"lr/spark1.5/medium",
	"als/spark2.1/medium",
	"kmeans/spark2.1/large",
	"wordcount/hadoop2.7/small",
}

// studySeeds is the repetitions per (method, workload). The Runner
// numbers them 0..studySeeds-1, so study-cold's inputs do not depend on
// the workload seed.
const studySeeds = 2

// Stopping configurations of the Figure 12 comparison.
var (
	compareNaive     = study.MethodConfig{Method: study.MethodNaive, EIStop: 0.10}
	compareAugmented = study.MethodConfig{Method: study.MethodAugmented, Delta: 1.1}
)

// studyGrid is every distinct search the slice requests: the three BO
// methods with stopping disabled (the CDF, the region classification and
// the breakdown) and the two stopping configurations of the comparison.
var studyGrid = []study.MethodConfig{
	{Method: study.MethodNaive, EIStop: -1, Delta: -1},
	{Method: study.MethodAugmented, EIStop: -1, Delta: -1},
	{Method: study.MethodHybrid, EIStop: -1, Delta: -1},
	compareNaive,
	compareAugmented,
}

// sliceOutput is everything the figure mix computes.
type sliceOutput struct {
	CDF       []study.MethodCDF
	Regions   map[string]study.Region
	Compare   *study.CompareReport
	Breakdown []study.GroupStats
}

// runSlice is the study's figure mix: a Figure 9 CDF over the three BO
// methods, the Figure 1 regions (which rerun the Naive line), the
// Figure 12 comparison and a breakdown (which reruns the Augmented line).
func runSlice(r *study.Runner) ([]byte, error) {
	var out sliceOutput
	var err error
	mcs := []study.MethodConfig{{Method: study.MethodNaive}, {Method: study.MethodAugmented}, {Method: study.MethodHybrid}}
	if out.CDF, err = r.SearchCostCDF(mcs, core.MinimizeCost, studySeeds); err != nil {
		return nil, err
	}
	if out.Regions, err = r.ClassifyRegions(core.MinimizeCost, studySeeds); err != nil {
		return nil, err
	}
	if out.Compare, err = r.Compare(compareNaive, compareAugmented, core.MinimizeCost, studySeeds, out.Regions); err != nil {
		return nil, err
	}
	if out.Breakdown, err = r.BreakdownByGroup(study.MethodConfig{Method: study.MethodAugmented}, core.MinimizeCost, studySeeds, study.ByCategory); err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

// newRunner builds a cold study.Runner over the subset with its own
// fresh cache directory.
func newRunner(ws []workloads.Workload, dir string, tracer *layerTracer) *study.Runner {
	opts := []study.Option{study.WithWorkloads(ws), study.WithCacheDir(dir), study.WithConcurrency(2)}
	if tracer != nil {
		opts = append(opts, study.WithTracer(tracer))
	}
	return study.NewRunner(sim.New(cloud.DefaultCatalog()), opts...)
}

// runStudy runs study-cold: the untraced pass, and for --trace 1 also the
// traced pass and the per-layer breakdown.
func runStudy(o options) (*report, error) {
	ws := make([]workloads.Workload, len(studyWorkloadIDs))
	for i, id := range studyWorkloadIDs {
		w, err := workloads.ByID(id)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	tl := &tally{}
	plain, err := studyPass(o, ws, false, tl)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: "study-cold", e2e: plain.e2e, tally: tl}
	if !o.trace {
		return rep, nil
	}
	runtime.GC()
	traced, err := studyPass(o, ws, true, tl)
	if err != nil {
		return nil, err
	}
	// As for the serve workloads, the overhead compares the traced pass
	// with an untraced pass that follows it.
	runtime.GC()
	again, err := studyPass(o, ws, false, tl)
	if err != nil {
		return nil, err
	}
	rep.traced = traced.e2e
	overhead := 100 * (ratio(again.e2e["searches_per_s"].value, traced.e2e["searches_per_s"].value) - 1)
	rep.layers = append(traced.layers, countRow("trace_overhead_pct", overhead, "%"))
	return rep, nil
}

// studyPass is one full run of study-cold: timed Runner bring-ups, a
// warm-up slice, slices on fresh Runners until the window closes, and the
// checks against a serial recomputation.
func studyPass(o options, ws []workloads.Workload, traced bool, tl *tally) (*passResult, error) {
	var tracer *layerTracer
	if traced {
		tracer = newLayerTracer()
	}
	var setup []time.Duration
	for rep := 0; rep < setupWarm+setupReps; rep++ {
		dir, err := os.MkdirTemp(o.scratch, "study-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r := newRunner(ws, dir, tracer)
		if rep >= setupWarm {
			setup = append(setup, time.Since(t0))
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}

	// The warm-up slice also fixes the expected output: every later
	// slice on a cold Runner must reproduce it exactly.
	var (
		want      []byte
		last      *study.Runner
		lastDir   string
		slices    int
		lookups   int64
		wall      time.Duration
		rates     []float64
		misses    []float64
		diskBytes []float64
		reuse     float64
	)
	closeLast := func() {
		if last != nil {
			last.Close()
			os.RemoveAll(lastDir)
		}
	}
	defer closeLast()
	var windowStart time.Time
	for slices == 0 || time.Since(windowStart) < o.window {
		dir, err := os.MkdirTemp(o.scratch, "study-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r := newRunner(ws, dir, tracer)
		out, err := runSlice(r)
		d := time.Since(t0)
		closeLast()
		last, lastDir = r, dir
		if err != nil {
			return nil, fmt.Errorf("study slice: %w", err)
		}
		if want == nil {
			want = out // the warm-up slice
			if tracer != nil {
				tracer.reset()
			}
			windowStart = time.Now()
			continue
		}
		tl.check(bytes.Equal(out, want), "slice %d: figure outputs differ from the first cold slice", slices)
		runs, _ := r.CacheStats()
		slices++
		lookups += runs.Lookups()
		wall += d
		rates = append(rates, float64(runs.Lookups())/d.Seconds())
		misses = append(misses, float64(runs.Misses))
		reuse = runs.ReuseRatio()
		n, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		diskBytes = append(diskBytes, float64(n))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &passResult{e2e: e2eOf(setup, rss)}
	// Throughput is the interquartile mean of the per-slice rates, for the
	// reason given at rateBucket.
	rate := interquartileMean(rates)
	res.e2e["searches_per_s"] = metric{rate, "1/s", int(lookups)}
	// A study search is the batch form of one advisor session: sessions_per_s
	// is the same rate, so every workload reports it.
	res.e2e["sessions_per_s"] = metric{rate, "1/s", int(lookups)}

	// Serial recomputation on an uncached Runner: a fixed sample of the
	// grid untraced, the whole grid (timed) when traced.
	fresh := study.NewRunner(sim.New(cloud.DefaultCatalog()), study.WithWorkloads(ws), study.WithoutRunCache(), study.WithConcurrency(1))
	var searchTimes []time.Duration
	for gi, mc := range studyGrid {
		for wi, w := range ws {
			for seed := int64(0); seed < studySeeds; seed++ {
				if !traced && (wi+int(seed))%len(studyGrid) != gi {
					continue // the fixed sample: 12 of the 60 searches
				}
				t0 := time.Now()
				got, err := fresh.RunSearch(mc, w, core.MinimizeCost, seed)
				searchTimes = append(searchTimes, time.Since(t0))
				if err != nil {
					return nil, err
				}
				served, err := last.RunSearch(mc, w, core.MinimizeCost, seed)
				if err != nil {
					return nil, err
				}
				a, _ := json.Marshal(got)
				b, _ := json.Marshal(served)
				tl.check(bytes.Equal(a, b), "%s on %s seed %d: cached summary differs from a serial recomputation", mc.Label(), w.ID(), seed)
			}
		}
	}
	res.e2e["failed_ratio"] = failedRatio(tl)
	if !traced {
		return res, nil
	}

	tracer.mu.Lock()
	events := tracer.events
	tracer.mu.Unlock()
	var executed float64 // searches the slices ran: their cache misses
	for _, m := range misses {
		executed += m
	}
	// Both workers' slice time is the study's end-to-end time.
	share := ratio(float64(mean(searchTimes))*executed, 2*float64(wall))
	res.layers = append(timingRows("study.search_ms", "", searchTimes, time.Millisecond, "ms", share),
		countRow("runcache.reuse_ratio", reuse, "ratio"),
		countRow("runcache.misses", quantile(misses, 0.5), "count"),
		countRow("runcache.disk_bytes", quantile(diskBytes, 0.5), "B"),
		countRow("telemetry.events_per_session", ratio(float64(events), float64(lookups)), "count"),
	)
	probe, err := replayGrid(ws)
	if err != nil {
		return nil, err
	}
	res.layers = append(res.layers, coreRows(probe)...)
	return res, nil
}

// replayGrid replays the grid's searches in-process through
// arrow.Advisor, for the core layer's numbers on study-cold's inputs.
func replayGrid(ws []workloads.Workload) (*coreProbe, error) {
	probe := newCoreProbe()
	methods := map[study.Method]arrow.Method{
		study.MethodNaive:     arrow.MethodNaiveBO,
		study.MethodAugmented: arrow.MethodAugmentedBO,
		study.MethodHybrid:    arrow.MethodHybridBO,
	}
	var simTimes []time.Duration
	for _, w := range ws {
		for seed := int64(0); seed < studySeeds; seed++ {
			target, err := arrow.NewSimulatedTarget(w.ID(), seed)
			if err != nil {
				return nil, err
			}
			tab := measureAll(target, &simTimes)
			for _, mc := range studyGrid {
				opts := []arrow.Option{
					arrow.WithMethod(methods[mc.Method]), arrow.WithSeed(seed),
					arrow.WithObjective(arrow.MinimizeCost), arrow.WithTracer(probe.tracer),
				}
				if mc.EIStop != 0 {
					opts = append(opts, arrow.WithEIStopFraction(mc.EIStop))
				}
				if mc.Delta != 0 {
					opts = append(opts, arrow.WithDeltaThreshold(mc.Delta))
				}
				opt, err := arrow.New(opts...)
				if err != nil {
					return nil, err
				}
				adv, err := opt.NewAdvisor(arrow.CatalogCandidates())
				if err != nil {
					return nil, err
				}
				if _, err := drive(adv, tab, probe); err != nil {
					return nil, err
				}
			}
		}
	}
	return probe, nil
}
