package study

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workloads"
)

// CSVSink receives one CSV file of an experiment: its file name, header
// and rows.
type CSVSink func(name string, header []string, rows [][]string) error

// Paper is one regeneration of the evaluation: the Runner every
// experiment computes through, the repetitions per workload, and the
// sink that receives the experiments' CSV files.
type Paper struct {
	runner *Runner
	seeds  int
	csv    CSVSink

	// regions memoizes the Figure 1 classification, which several
	// experiments reuse; the singleflight keeps concurrent experiments
	// from classifying twice (the underlying searches dedup in the run
	// cache either way).
	regions *runcache.Store[map[string]Region]
}

// NewPaper prepares a regeneration over r at seeds repetitions per
// workload, handing every CSV file to csv.
func NewPaper(r *Runner, seeds int, csv CSVSink) *Paper {
	regions, _ := runcache.Open[map[string]Region]("", sim.SubstrateVersion) // memory-only Open cannot fail
	return &Paper{runner: r, seeds: seeds, csv: csv, regions: regions}
}

// Experiment is one table or figure of the evaluation. Run owns the
// whole specification (workloads, objectives, method and stopping
// configurations, kernels, VMs, thresholds, CSV names and headers): it
// computes through the Paper's Runner, hands its CSVs to the Paper's
// sink, and writes its summary lines and charts to out.
type Experiment struct {
	Name string
	Desc string
	Run  func(p *Paper, out io.Writer) error
}

// Experiments lists the evaluation in paper order, the order in which
// callers merge the output of concurrently run experiments.
var Experiments = []Experiment{
	{"table1", "Table I: application and workload inventory", runTable1},
	{"fig1", "Fig 1: Naive BO search-cost CDF and regions", runFig1},
	{"fig2", "Fig 2: Naive BO trajectory for ALS on Spark", runFig2},
	{"fig3", "Fig 3: best-to-worst spread in time and cost", runFig3},
	{"fig4", "Fig 4: fixed most/least expensive VM distributions", runFig4},
	{"fig5", "Fig 5: input size changes the best VM", runFig5},
	{"fig6", "Fig 6: cost levels the playing field (regression)", runFig6},
	{"fig7", "Fig 7: kernel choice changes BO effectiveness", runFig7},
	{"fig8", "Fig 8: low-level metrics expose a memory bottleneck", runFig8},
	{"fig9", "Fig 9: search-cost CDFs, Naive vs Augmented vs Hybrid", runFig9},
	{"fig10", "Fig 10: trajectories with IQR bands", runFig10},
	{"fig11", "Fig 11: stopping-criterion trade-off per region", runFig11},
	{"fig12", "Fig 12: win/same/draw/loss under the cost objective",
		compare(core.MinimizeCost, 1.1, "fig12_win_loss_cost.csv",
			"Fig 12: Augmented (delta 1.1) vs Naive (EI 10%) on deployment cost", "paper cost objective: 46/39/17/5")},
	{"fig13", "Fig 13: win/same/draw/loss under the time-cost product",
		compare(core.MinimizeTimeCostProduct, 1.05, "fig13_win_loss_product.csv",
			"Fig 13: Augmented (delta 1.05) vs Naive (EI 10%) on the time-cost product", "paper time-cost product: 53/14/32+2/6")},
	{"initpoints", "Sec III-C: initial-point sensitivity", runInitPoints},
	{"breakdown", "extension: search cost per category/system/size", runBreakdown},
}

// regionsFor computes (and memoizes) the Figure 1 region classification.
func (p *Paper) regionsFor(objective core.Objective) (map[string]Region, error) {
	return p.regions.Do(runcache.Key("regions\x00"+objective.String()), func() (map[string]Region, error) {
		return p.runner.ClassifyRegions(objective, p.seeds)
	})
}

// num formats a CSV number.
func num(v float64) string { return fmt.Sprintf("%.6g", v) }

func runTable1(p *Paper, out io.Writer) error {
	var rows [][]string
	for _, w := range workloads.All() {
		status := "study"
		if _, err := p.runner.WorkloadByID(w.ID()); err != nil {
			status = "excluded"
		}
		d := w.Demands
		rows = append(rows, []string{
			w.ID(), w.AppName, w.Category.String(), w.System.String(), w.Size.String(),
			num(d.CPUCoreSeconds), num(d.SerialFraction), num(d.WorkingSetGiB), num(d.IOGiB), status,
		})
	}
	fmt.Fprintf(out, "%d applications, %d candidate workloads, %d in the study set\n",
		workloads.NumApplications, len(workloads.All()), len(p.runner.workloads))
	return p.csv("table1_inventory.csv", []string{"workload", "app", "category", "system", "size",
		"cpu_core_s", "serial_frac", "working_set_gib", "io_gib", "status"}, rows)
}

func runFig1(p *Paper, out io.Writer) error {
	cdfs, err := p.runner.SearchCostCDF([]MethodConfig{{Method: MethodNaive}}, core.MinimizeTime, p.seeds)
	if err != nil {
		return err
	}
	regions, err := p.regionsFor(core.MinimizeTime)
	if err != nil {
		return err
	}
	cdf := cdfs[0]
	var rows [][]string
	for m, frac := range cdf.FractionByBudget {
		rows = append(rows, []string{fmt.Sprint(m + 1), num(frac)})
	}
	if err := p.csv("fig1_naive_cdf.csv", []string{"measurements", "fraction_of_workloads"}, rows); err != nil {
		return err
	}
	counts := map[Region]int{}
	for _, r := range regions {
		counts[r]++
	}
	fmt.Fprintf(out, "within 6 measurements (Region I boundary): %.0f%% of workloads\n", 100*cdf.FractionWithin(6))
	fmt.Fprintf(out, "within 12 measurements (Region II boundary): %.0f%% of workloads\n", 100*cdf.FractionWithin(12))
	fmt.Fprintf(out, "regions: I=%d II=%d III=%d\n", counts[RegionI], counts[RegionII], counts[RegionIII])
	return plotLines(out, "Fig 1: Naive BO search-cost CDF (time objective)", cdfSeries(cdfs))
}

// plotLines prints a line chart of series.
func plotLines(out io.Writer, title string, series []textplot.Series) error {
	chart, err := textplot.Line(title, series, 60, 12)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, chart)
	return err
}

// plotBars prints a horizontal bar chart.
func plotBars(out io.Writer, title string, bars []textplot.Bar) error {
	chart, err := textplot.HBar(title, bars, 40)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, chart)
	return err
}

// cdfSeries charts each CDF in percent of workloads per measurement budget.
func cdfSeries(cdfs []MethodCDF) []textplot.Series {
	series := make([]textplot.Series, len(cdfs))
	for i, cdf := range cdfs {
		series[i].Name = cdf.Label
		for m, frac := range cdf.FractionByBudget {
			series[i].X = append(series[i].X, float64(m+1))
			series[i].Y = append(series[i].Y, 100*frac)
		}
	}
	return series
}

// trajectorySeries charts each report's median per step.
func trajectorySeries(reps []*TrajectoryReport) []textplot.Series {
	series := make([]textplot.Series, len(reps))
	for i, rep := range reps {
		series[i].Name = rep.Label
		for _, pt := range rep.Points {
			series[i].X = append(series[i].X, float64(pt.Step))
			series[i].Y = append(series[i].Y, pt.Median)
		}
	}
	return series
}

func runFig2(p *Paper, out io.Writer) error {
	w, err := p.runner.WorkloadByID("als/spark2.1/medium")
	if err != nil {
		return err
	}
	rep, err := p.runner.Trajectories(MethodConfig{Method: MethodNaive}, w, core.MinimizeTime, p.seeds)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, pt := range rep.Points {
		rows = append(rows, []string{fmt.Sprint(pt.Step), num(pt.Median), num(pt.Q1), num(pt.Q3)})
	}
	if err := p.csv("fig2_als_trajectory.csv", []string{"step", "median_norm_time", "q1", "q3"}, rows); err != nil {
		return err
	}
	fmt.Fprintf(out, "median measurements to reach the optimal VM: %.1f\n", rep.MedianStepOptimal)
	return plotLines(out, "Fig 2: Naive BO on als/spark2.1 (normalized time)", trajectorySeries([]*TrajectoryReport{rep}))
}

func runFig3(p *Paper, out io.Writer) error {
	rows, err := p.runner.Spread()
	if err != nil {
		return err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TimeRatio > rows[j].TimeRatio })
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{r.WorkloadID, num(r.TimeRatio), num(r.CostRatio)})
	}
	if err := p.csv("fig3_spread.csv", []string{"workload", "time_worst_over_best", "cost_worst_over_best"}, csvRows); err != nil {
		return err
	}
	fmt.Fprintf(out, "largest time spread: %s at %.1fx\n", rows[0].WorkloadID, rows[0].TimeRatio)
	byCost := append([]SpreadRow(nil), rows...)
	sort.Slice(byCost, func(i, j int) bool { return byCost[i].CostRatio > byCost[j].CostRatio })
	fmt.Fprintf(out, "largest cost spread: %s at %.1fx\n", byCost[0].WorkloadID, byCost[0].CostRatio)
	var bars []textplot.Bar
	for _, r := range rows[:min(6, len(rows))] {
		bars = append(bars, textplot.Bar{Label: r.WorkloadID, Value: r.TimeRatio, Annotation: fmt.Sprintf("cost %.1fx", r.CostRatio)})
	}
	return plotBars(out, "Fig 3: worst/best execution-time ratio (top workloads)", bars)
}

func runFig4(p *Paper, out io.Writer) error {
	expensive, err := p.runner.FixedVMDistribution([]string{"c4.2xlarge", "m4.2xlarge", "r4.2xlarge"}, core.MinimizeTime)
	if err != nil {
		return err
	}
	cheap, err := p.runner.FixedVMDistribution([]string{"c4.large", "m4.large", "r4.large"}, core.MinimizeCost)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, group := range []struct {
		panel  string
		series []FixedVMSeries
	}{{"a_time_most_expensive", expensive}, {"b_cost_least_expensive", cheap}} {
		for _, s := range group.series {
			for i, v := range s.NormalizedSorted {
				rows = append(rows, []string{group.panel, s.VMName, fmt.Sprint(i), num(v)})
			}
		}
	}
	for _, s := range expensive {
		fmt.Fprintf(out, "time: %s is (near-)optimal for %.0f%% of workloads\n", s.VMName, 100*s.OptimalFraction)
	}
	for _, s := range cheap {
		fmt.Fprintf(out, "cost: %s is (near-)optimal for %.0f%% of workloads\n", s.VMName, 100*s.OptimalFraction)
	}
	return p.csv("fig4_fixed_vm.csv", []string{"panel", "vm", "workload_rank", "normalized"}, rows)
}

func runFig5(p *Paper, out io.Writer) error {
	pairs := []AppSystem{
		{App: "pagerank", System: workloads.Hadoop27},
		{App: "bayes", System: workloads.Spark21},
		{App: "als", System: workloads.Spark21},
		{App: "wordcount", System: workloads.Spark21},
		{App: "terasort", System: workloads.Hadoop27},
		{App: "kmeans", System: workloads.Spark15},
	}
	rows, err := p.runner.InputSizeEffect(pairs, "m4.xlarge", core.MinimizeCost)
	if err != nil {
		return err
	}
	var csvRows [][]string
	changed := 0
	for _, r := range rows {
		if r.BestVMChanges {
			changed++
		}
		for _, size := range workloads.Sizes() {
			if cell := r.PerSize[size]; cell != nil {
				csvRows = append(csvRows, []string{r.AppName, r.System.String(), size.String(), cell.BestVM, num(cell.RefNormalized)})
			}
		}
	}
	fmt.Fprintf(out, "best VM changes with input size for %d of %d app/system pairs\n", changed, len(rows))
	for _, r := range rows {
		fmt.Fprintf(out, "  %s/%s:", r.AppName, r.System)
		for _, size := range workloads.Sizes() {
			if cell := r.PerSize[size]; cell != nil {
				fmt.Fprintf(out, " %s=%s", size, cell.BestVM)
			}
		}
		fmt.Fprintln(out)
	}
	return p.csv("fig5_input_size.csv", []string{"app", "system", "size", "best_vm", "m4.xlarge_normalized_cost"}, csvRows)
}

func runFig6(p *Paper, out io.Writer) error {
	lf, err := p.runner.LevelPlayingField("regression/spark1.5/medium")
	if err != nil {
		return err
	}
	var rows [][]string
	var bars []textplot.Bar
	for _, r := range lf.Rows {
		rows = append(rows, []string{r.VMName, num(r.NormTime), num(r.NormCost)})
		bars = append(bars, textplot.Bar{Label: r.VMName, Value: r.NormCost, Annotation: fmt.Sprintf("time %.2f", r.NormTime)})
	}
	if err := p.csv("fig6_level_playing_field.csv", []string{"vm", "normalized_time", "normalized_cost"}, rows); err != nil {
		return err
	}
	fmt.Fprintf(out, "time spread %.1fx vs cost spread %.1fx — cost compresses differences\n", lf.TimeSpread, lf.CostSpread)
	return plotBars(out, "Fig 6: normalized deployment cost per VM (regression/spark1.5)", bars)
}

func runFig7(p *Paper, out io.Writer) error {
	for _, panel := range []struct {
		id        string
		workload  string
		objective core.Objective
		csv       string
	}{
		{"a", "als/spark2.1/medium", core.MinimizeTime, "fig7a_kernels_als_time.csv"},
		{"b", "bayes/spark2.1/medium", core.MinimizeCost, "fig7b_kernels_bayes_cost.csv"},
	} {
		w, err := p.runner.WorkloadByID(panel.workload)
		if err != nil {
			return err
		}
		reports, err := p.runner.KernelComparison(w, panel.objective, kernel.All(), p.seeds)
		if err != nil {
			return err
		}
		var rows [][]string
		for _, rep := range reports {
			for _, pt := range rep.Points {
				rows = append(rows, []string{rep.Label, fmt.Sprint(pt.Step), num(pt.Median), num(pt.Q1), num(pt.Q3)})
			}
			fmt.Fprintf(out, "panel %s (%s, %s): %-11s median steps to optimum %.1f\n",
				panel.id, panel.workload, panel.objective, rep.Label, rep.MedianStepOptimal)
		}
		if err := p.csv(panel.csv, []string{"kernel", "step", "median_normalized", "q1", "q3"}, rows); err != nil {
			return err
		}
		title := fmt.Sprintf("Fig 7(%s): kernels on %s (%s)", panel.id, panel.workload, panel.objective)
		if err := plotLines(out, title, trajectorySeries(reports)); err != nil {
			return err
		}
	}
	return nil
}

func runFig8(p *Paper, out io.Writer) error {
	rows, err := p.runner.BottleneckProfile("lr/spark1.5/medium")
	if err != nil {
		return err
	}
	var csvRows [][]string
	var bars []textplot.Bar
	for _, r := range rows {
		csvRows = append(csvRows, []string{r.VMName, num(r.NormTime), num(r.CPUUser), num(r.IOWait), num(r.MemCommit)})
		bars = append(bars, textplot.Bar{
			Label:      r.VMName,
			Value:      r.MemCommit,
			Annotation: fmt.Sprintf("iowait %4.1f%%  time %.1fx", r.IOWait, r.NormTime),
		})
	}
	if err := p.csv("fig8_memory_bottleneck.csv",
		[]string{"vm", "normalized_time", "cpu_user_pct", "iowait_pct", "mem_commit_pct"}, csvRows); err != nil {
		return err
	}
	return plotBars(out, "Fig 8: %commit per VM for lr/spark1.5 (slowest first)", bars)
}

func runFig9(p *Paper, out io.Writer) error {
	methods := []MethodConfig{{Method: MethodNaive}, {Method: MethodAugmented}, {Method: MethodHybrid}}
	for _, panel := range []struct {
		id        string
		objective core.Objective
		csv       string
	}{
		{"a", core.MinimizeTime, "fig9a_cdf_time.csv"},
		{"b", core.MinimizeCost, "fig9b_cdf_cost.csv"},
	} {
		cdfs, err := p.runner.SearchCostCDF(methods, panel.objective, p.seeds)
		if err != nil {
			return err
		}
		var rows [][]string
		for _, cdf := range cdfs {
			for m, frac := range cdf.FractionByBudget {
				rows = append(rows, []string{cdf.Label, fmt.Sprint(m + 1), num(frac)})
			}
			fmt.Fprintf(out, "panel %s (%s): %-12s within 6: %3.0f%%  within 10: %3.0f%%  within 12: %3.0f%%\n",
				panel.id, panel.objective, cdf.Label,
				100*cdf.FractionWithin(6), 100*cdf.FractionWithin(10), 100*cdf.FractionWithin(12))
		}
		if err := p.csv(panel.csv, []string{"method", "measurements", "fraction_of_workloads"}, rows); err != nil {
			return err
		}
		if err := plotLines(out, fmt.Sprintf("Fig 9(%s): search-cost CDF (%s)", panel.id, panel.objective), cdfSeries(cdfs)); err != nil {
			return err
		}
	}
	return nil
}

func runFig10(p *Paper, out io.Writer) error {
	for _, panel := range []struct {
		id        string
		workload  string
		objective core.Objective
		csv       string
	}{
		{"a", "pagerank/hadoop2.7/medium", core.MinimizeTime, "fig10a_pagerank.csv"},
		{"b", "als/spark2.1/medium", core.MinimizeTime, "fig10b_als.csv"},
		{"c", "lr/spark1.5/medium", core.MinimizeCost, "fig10c_lr.csv"},
	} {
		w, err := p.runner.WorkloadByID(panel.workload)
		if err != nil {
			return err
		}
		var reports []*TrajectoryReport
		var rows [][]string
		for _, mc := range []MethodConfig{{Method: MethodNaive}, {Method: MethodAugmented}} {
			rep, err := p.runner.Trajectories(mc, w, panel.objective, p.seeds)
			if err != nil {
				return err
			}
			reports = append(reports, rep)
			iqrSum := 0.0
			for _, pt := range rep.Points {
				rows = append(rows, []string{rep.Label, fmt.Sprint(pt.Step), num(pt.Median), num(pt.Q1), num(pt.Q3)})
				iqrSum += pt.Q3 - pt.Q1
			}
			fmt.Fprintf(out, "panel %s %s: %-12s median steps %.1f, mean IQR %.3f\n",
				panel.id, panel.workload, rep.Label, rep.MedianStepOptimal, iqrSum/float64(len(rep.Points)))
		}
		if err := p.csv(panel.csv, []string{"method", "step", "median_normalized", "q1", "q3"}, rows); err != nil {
			return err
		}
		title := fmt.Sprintf("Fig 10(%s): %s (%s)", panel.id, panel.workload, panel.objective)
		if err := plotLines(out, title, trajectorySeries(reports)); err != nil {
			return err
		}
	}
	return nil
}

func runFig11(p *Paper, out io.Writer) error {
	regions, err := p.regionsFor(core.MinimizeCost)
	if err != nil {
		return err
	}
	points, err := p.runner.StoppingSweep(core.MinimizeCost, p.seeds,
		[]float64{0.05, 0.10, 0.15, 0.20},
		[]float64{0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3},
		regions)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, pt := range points {
		rows = append(rows, []string{pt.Region.String(), pt.Label, num(pt.Threshold), num(pt.SearchCost), num(pt.FoundNorm)})
	}
	for _, reg := range []Region{RegionI, RegionII, RegionIII} {
		fmt.Fprintf(out, "%s:\n", reg)
		for _, pt := range points {
			if pt.Region == reg {
				fmt.Fprintf(out, "  %-28s search %.2f  cost %.3f\n", pt.Label, pt.SearchCost, pt.FoundNorm)
			}
		}
	}
	return p.csv("fig11_stopping_tradeoff.csv",
		[]string{"region", "method", "threshold", "mean_search_cost", "mean_normalized_cost"}, rows)
}

// compare builds Figure 12 or 13: Augmented BO at delta against Naive BO
// at EI 10 %, both with stopping, per workload under objective.
func compare(objective core.Objective, delta float64, csvName, title, paper string) func(*Paper, io.Writer) error {
	return func(p *Paper, out io.Writer) error {
		regions, err := p.regionsFor(core.MinimizeCost)
		if err != nil {
			return err
		}
		rep, err := p.runner.Compare(
			MethodConfig{Method: MethodNaive, EIStop: 0.10},
			MethodConfig{Method: MethodAugmented, Delta: delta},
			objective, p.seeds, regions)
		if err != nil {
			return err
		}
		var rows [][]string
		for _, pt := range rep.Points {
			rows = append(rows, []string{pt.WorkloadID, pt.Region.String(), num(pt.SearchCostReduction), num(pt.ValueImprovement), pt.Class.String()})
		}
		fmt.Fprintf(out, "%s\n", title)
		fmt.Fprintf(out, "win=%d same=%d draw=%d loss=%d (%s)\n",
			rep.Counts[Win], rep.Counts[Same], rep.Counts[Draw], rep.Counts[Loss], paper)
		return p.csv(csvName, []string{"workload", "region", "search_cost_reduction_pct", "value_improvement_pct", "class"}, rows)
	}
}

func runInitPoints(p *Paper, out io.Writer) error {
	reports, err := p.runner.InitialPointSensitivity(core.MinimizeCost, map[string][]string{
		"paper-triplet(c4.xlarge,m4.large,r3.2xlarge)": {"c4.xlarge", "m4.large", "r3.2xlarge"},
		"diverse(c3.large,m4.xlarge,r4.2xlarge)":       {"c3.large", "m4.xlarge", "r4.2xlarge"},
		"all-large(c4,m4,r4)":                          {"c4.large", "m4.large", "r4.large"},
		"all-2xlarge(c4,m4,r4)":                        {"c4.2xlarge", "m4.2xlarge", "r4.2xlarge"},
	})
	if err != nil {
		return err
	}
	var rows [][]string
	for _, rep := range reports {
		ids := make([]string, 0, len(rep.PerWorkloadStep))
		for id := range rep.PerWorkloadStep {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			rows = append(rows, []string{rep.Label, id, fmt.Sprint(rep.PerWorkloadStep[id])})
		}
		fmt.Fprintf(out, "%-46s miss-within-6 rate: %.0f%%\n", rep.Label, 100*rep.FailFraction)
	}
	return p.csv("initpoints_sensitivity.csv", []string{"design", "workload", "step_optimal"}, rows)
}

func runBreakdown(p *Paper, out io.Writer) error {
	var rows [][]string
	for _, group := range []GroupBy{ByCategory, BySystem, ByInputSize} {
		for _, mc := range []MethodConfig{{Method: MethodNaive}, {Method: MethodAugmented}} {
			stats, err := p.runner.BreakdownByGroup(mc, core.MinimizeCost, p.seeds, group)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s by %s:\n", mc.Label(), group)
			for _, gs := range stats {
				fmt.Fprintf(out, "  %-22s n=%-3d mean %.2f median %.1f  regions I/II/III %d/%d/%d\n",
					gs.Group, gs.Workloads, gs.MeanStep, gs.MedianStep,
					gs.RegionCounts[RegionI], gs.RegionCounts[RegionII], gs.RegionCounts[RegionIII])
				rows = append(rows, []string{group.String(), mc.Label(), gs.Group,
					fmt.Sprint(gs.Workloads), num(gs.MeanStep), num(gs.MedianStep)})
			}
		}
	}
	return p.csv("breakdown_groups.csv",
		[]string{"group_by", "method", "group", "workloads", "mean_step", "median_step"}, rows)
}
