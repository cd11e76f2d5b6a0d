package study

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/lowlevel"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// SpreadRow is one workload of Figure 3: how much worse the worst VM is
// than the best, in time and in cost.
type SpreadRow struct {
	WorkloadID string
	TimeRatio  float64 // worst/best execution time
	CostRatio  float64 // worst/best deployment cost
}

// Spread computes the best-to-worst spread of every study workload.
// Figure 3 reports up to ~20x in time and ~10x in cost.
func (r *Runner) Spread() ([]SpreadRow, error) {
	out := make([]SpreadRow, 0, len(r.workloads))
	for _, w := range r.workloads {
		times, err := r.TruthValues(w, core.MinimizeTime)
		if err != nil {
			return nil, err
		}
		costs, err := r.TruthValues(w, core.MinimizeCost)
		if err != nil {
			return nil, err
		}
		minT, _ := stats.Min(times)
		maxT, _ := stats.Max(times)
		minC, _ := stats.Min(costs)
		maxC, _ := stats.Max(costs)
		out = append(out, SpreadRow{WorkloadID: w.ID(), TimeRatio: maxT / minT, CostRatio: maxC / minC})
	}
	return out, nil
}

// FixedVMSeries is one VM's line in Figure 4: its normalized performance
// on every study workload, sorted ascending, plus how often it is optimal.
type FixedVMSeries struct {
	VMName string
	// Sorted normalized values (1.0 = this VM is the optimum for that
	// workload), one per workload, ascending.
	NormalizedSorted []float64
	// OptimalFraction is the share of workloads where this VM is within
	// Epsilon of optimal.
	OptimalFraction float64
}

// fixedVMEpsilon treats values within 0.1% of the optimum as optimal.
const fixedVMEpsilon = 1.001

// FixedVMDistribution evaluates how a fixed choice of VM performs across
// all study workloads — Figure 4(a) uses the most expensive VMs under the
// time objective, Figure 4(b) the least expensive under cost.
func (r *Runner) FixedVMDistribution(vmNames []string, objective core.Objective) ([]FixedVMSeries, error) {
	out := make([]FixedVMSeries, 0, len(vmNames))
	for _, name := range vmNames {
		idx, err := r.catalog.Index(name)
		if err != nil {
			return nil, err
		}
		series := FixedVMSeries{VMName: name}
		optimalCount := 0
		for _, w := range r.workloads {
			truth, err := r.TruthValues(w, objective)
			if err != nil {
				return nil, err
			}
			best, err := stats.Min(truth)
			if err != nil {
				return nil, err
			}
			norm := truth[idx] / best
			series.NormalizedSorted = append(series.NormalizedSorted, norm)
			if norm <= fixedVMEpsilon {
				optimalCount++
			}
		}
		sort.Float64s(series.NormalizedSorted)
		series.OptimalFraction = float64(optimalCount) / float64(len(r.workloads))
		out = append(out, series)
	}
	return out, nil
}

// InputSizeRow is one (application, system) of Figure 5: the best VM and
// the normalized performance of a fixed reference VM at each input size.
type InputSizeRow struct {
	AppName string
	System  workloads.System
	// PerSize is indexed by input size (small, medium, large); entries
	// for sizes excluded from the study set are nil.
	PerSize map[workloads.InputSize]*InputSizeCell
	// BestVMChanges reports whether the optimal VM differs across the
	// available sizes.
	BestVMChanges bool
}

// InputSizeCell is one (workload, size) entry.
type InputSizeCell struct {
	WorkloadID string
	BestVM     string
	// RefNormalized is the reference VM's value normalized to the
	// optimum for that size.
	RefNormalized float64
}

// InputSizeEffect reruns Figure 5 for the given (application, system)
// pairs using refVM as the fixed choice whose normalized performance is
// tracked across sizes.
func (r *Runner) InputSizeEffect(pairs []AppSystem, refVM string, objective core.Objective) ([]InputSizeRow, error) {
	refIdx, err := r.catalog.Index(refVM)
	if err != nil {
		return nil, err
	}
	var out []InputSizeRow
	for _, p := range pairs {
		row := InputSizeRow{
			AppName: p.App,
			System:  p.System,
			PerSize: make(map[workloads.InputSize]*InputSizeCell),
		}
		bestSeen := make(map[string]bool)
		for _, size := range workloads.Sizes() {
			id := fmt.Sprintf("%s/%s/%s", p.App, p.System, size)
			w, err := r.WorkloadByID(id)
			if err != nil {
				continue // excluded from the study set (OOM on small VMs)
			}
			truth, err := r.TruthValues(w, objective)
			if err != nil {
				return nil, err
			}
			bestIdx, err := stats.ArgMin(truth)
			if err != nil {
				return nil, err
			}
			row.PerSize[size] = &InputSizeCell{
				WorkloadID:    id,
				BestVM:        r.catalog.VM(bestIdx).Name(),
				RefNormalized: truth[refIdx] / truth[bestIdx],
			}
			bestSeen[r.catalog.VM(bestIdx).Name()] = true
		}
		if len(row.PerSize) == 0 {
			return nil, fmt.Errorf("study: no sizes of %s/%s in study set", p.App, p.System)
		}
		row.BestVMChanges = len(bestSeen) > 1
		out = append(out, row)
	}
	return out, nil
}

// AppSystem names an (application, system) pair.
type AppSystem struct {
	App    string
	System workloads.System
}

// LevelField is Figure 6 for one workload: per-VM normalized time and
// cost, demonstrating how cost compresses differences.
type LevelField struct {
	WorkloadID string
	Rows       []LevelFieldRow
	// TimeSpread and CostSpread are worst/best ratios; the paper's point
	// is CostSpread << TimeSpread.
	TimeSpread float64
	CostSpread float64
}

// LevelFieldRow is one VM's entry.
type LevelFieldRow struct {
	VMName   string
	NormTime float64
	NormCost float64
}

// LevelPlayingField computes Figure 6 for workload id.
func (r *Runner) LevelPlayingField(id string) (*LevelField, error) {
	w, err := r.WorkloadByID(id)
	if err != nil {
		return nil, err
	}
	times, err := r.TruthValues(w, core.MinimizeTime)
	if err != nil {
		return nil, err
	}
	costs, err := r.TruthValues(w, core.MinimizeCost)
	if err != nil {
		return nil, err
	}
	minT, _ := stats.Min(times)
	maxT, _ := stats.Max(times)
	minC, _ := stats.Min(costs)
	maxC, _ := stats.Max(costs)
	lf := &LevelField{WorkloadID: id, TimeSpread: maxT / minT, CostSpread: maxC / minC}
	for i := 0; i < r.catalog.Len(); i++ {
		lf.Rows = append(lf.Rows, LevelFieldRow{
			VMName:   r.catalog.VM(i).Name(),
			NormTime: times[i] / minT,
			NormCost: costs[i] / minC,
		})
	}
	sort.Slice(lf.Rows, func(i, j int) bool { return lf.Rows[i].NormTime < lf.Rows[j].NormTime })
	return lf, nil
}

// BottleneckRow is one VM of Figure 8: normalized execution time next to
// the low-level metrics that expose the bottleneck.
type BottleneckRow struct {
	VMName    string
	NormTime  float64
	IOWait    float64 // %iowait — "CPU utilization (I/O wait)"
	MemCommit float64 // %commit — "memory pressure (working size)"
	CPUUser   float64
}

// BottleneckProfile reruns Figure 8: the per-VM low-level view of a
// memory-bottlenecked workload, sorted from slowest to fastest VM.
func (r *Runner) BottleneckProfile(id string) ([]BottleneckRow, error) {
	w, err := r.WorkloadByID(id)
	if err != nil {
		return nil, err
	}
	table, err := r.sim.TruthTable(w)
	if err != nil {
		return nil, err
	}
	times := make([]float64, len(table))
	for i, res := range table {
		times[i] = res.TimeSec
	}
	best, err := stats.Min(times)
	if err != nil {
		return nil, err
	}
	rows := make([]BottleneckRow, len(table))
	for i, res := range table {
		rows[i] = BottleneckRow{
			VMName:    r.catalog.VM(i).Name(),
			NormTime:  res.TimeSec / best,
			IOWait:    res.Metrics[lowlevel.IOWait],
			MemCommit: res.Metrics[lowlevel.MemCommit],
			CPUUser:   res.Metrics[lowlevel.CPUUser],
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].NormTime > rows[j].NormTime })
	return rows, nil
}
