package study

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

func TestSpreadSelectedWorkloads(t *testing.T) {
	var ws []workloads.Workload
	for _, id := range []string{"lr/spark1.5/medium", "scan/hadoop2.7/medium"} {
		w, err := workloads.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	r := NewRunner(testRunner(t).Simulator(), WithWorkloads(ws))
	rows, err := r.Spread()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if row.TimeRatio < 1 || row.CostRatio < 1 {
			t.Errorf("%s: ratios below 1: %+v", row.WorkloadID, row)
		}
	}
	// lr/spark1.5 is the paper's memory-bottleneck example: large spread.
	if rows[0].TimeRatio < 5 {
		t.Errorf("lr spread %.1fx, want a big cliff", rows[0].TimeRatio)
	}
}

func TestSpreadDefaultsToAll(t *testing.T) {
	r := testRunner(t)
	rows, err := r.Spread()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(r.Workloads()) {
		t.Fatalf("%d rows, want %d", len(rows), len(r.Workloads()))
	}
}

func TestFixedVMDistribution(t *testing.T) {
	r := testRunner(t)
	series, err := r.FixedVMDistribution([]string{"c4.2xlarge", "m4.2xlarge", "r4.2xlarge"}, core.MinimizeTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.NormalizedSorted) != len(r.Workloads()) {
			t.Errorf("%s: %d values", s.VMName, len(s.NormalizedSorted))
		}
		for i := 1; i < len(s.NormalizedSorted); i++ {
			if s.NormalizedSorted[i] < s.NormalizedSorted[i-1] {
				t.Errorf("%s: not sorted", s.VMName)
			}
		}
		for _, v := range s.NormalizedSorted {
			if v < 1 {
				t.Errorf("%s: normalized value %v < 1", s.VMName, v)
			}
		}
		if s.OptimalFraction < 0 || s.OptimalFraction > 1 {
			t.Errorf("%s: optimal fraction %v", s.VMName, s.OptimalFraction)
		}
	}
}

func TestFixedVMDistributionUnknownVM(t *testing.T) {
	r := testRunner(t)
	if _, err := r.FixedVMDistribution([]string{"z9.small"}, core.MinimizeTime); err == nil {
		t.Error("unknown VM should fail")
	}
}

func TestInputSizeEffect(t *testing.T) {
	// Full study set: input-size rows need all sizes present.
	r := NewRunner(testRunner(t).Simulator())
	rows, err := r.InputSizeEffect([]AppSystem{
		{App: "bayes", System: workloads.Spark21},
		{App: "terasort", System: workloads.Hadoop27},
	}, "m4.xlarge", core.MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if len(row.PerSize) == 0 {
			t.Errorf("%s: no sizes", row.AppName)
		}
		for size, cell := range row.PerSize {
			if cell.BestVM == "" {
				t.Errorf("%s/%v: empty best VM", row.AppName, size)
			}
			if cell.RefNormalized < 1 {
				t.Errorf("%s/%v: ref normalized %v < 1", row.AppName, size, cell.RefNormalized)
			}
		}
	}
}

func TestInputSizeEffectUnknownPair(t *testing.T) {
	r := testRunner(t)
	if _, err := r.InputSizeEffect([]AppSystem{{App: "nope", System: workloads.Spark21}}, "m4.large", core.MinimizeCost); err == nil {
		t.Error("unknown app should fail")
	}
}

func TestLevelPlayingField(t *testing.T) {
	r := NewRunner(testRunner(t).Simulator())
	lf, err := r.LevelPlayingField("regression/spark1.5/medium")
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Rows) != r.Catalog().Len() {
		t.Fatalf("%d rows", len(lf.Rows))
	}
	// The paper's point: cost compresses differences relative to time.
	if lf.CostSpread >= lf.TimeSpread {
		t.Errorf("cost spread %.1fx should be below time spread %.1fx", lf.CostSpread, lf.TimeSpread)
	}
	minT, minC := math.Inf(1), math.Inf(1)
	for _, row := range lf.Rows {
		minT = math.Min(minT, row.NormTime)
		minC = math.Min(minC, row.NormCost)
	}
	if minT != 1 || minC != 1 {
		t.Errorf("normalized minima (%v, %v), want 1", minT, minC)
	}
}

func TestBottleneckProfile(t *testing.T) {
	r := testRunner(t)
	rows, err := r.BottleneckProfile("lr/spark1.5/medium")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != r.Catalog().Len() {
		t.Fatalf("%d rows", len(rows))
	}
	// Sorted slowest first.
	for i := 1; i < len(rows); i++ {
		if rows[i].NormTime > rows[i-1].NormTime {
			t.Errorf("rows not sorted by normalized time at %d", i)
		}
	}
	// The paper's Figure 8 phenomenon: the slowest VMs show memory
	// pressure (>100% commit) that the fastest does not.
	slowest, fastest := rows[0], rows[len(rows)-1]
	if slowest.MemCommit <= fastest.MemCommit {
		t.Errorf("slowest VM %%commit %v should exceed fastest %v", slowest.MemCommit, fastest.MemCommit)
	}
	if slowest.NormTime < 4 {
		t.Errorf("slowest/best = %.1fx, want a visible bottleneck", slowest.NormTime)
	}
	if fastest.NormTime != 1.0 {
		t.Errorf("fastest normalized time = %v", fastest.NormTime)
	}
}

func TestBottleneckProfileUnknownID(t *testing.T) {
	r := testRunner(t)
	if _, err := r.BottleneckProfile("nope"); err == nil {
		t.Error("unknown ID should fail")
	}
}
