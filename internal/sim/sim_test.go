package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/lowlevel"
	"repro/internal/workloads"
)

func newSim(t *testing.T, opts ...Option) *Simulator {
	t.Helper()
	return New(cloud.DefaultCatalog(), opts...)
}

func mustWorkload(t *testing.T, id string) workloads.Workload {
	t.Helper()
	w, err := workloads.ByID(id)
	if err != nil {
		t.Fatalf("workload %s: %v", id, err)
	}
	return w
}

func mustVM(t *testing.T, s *Simulator, name string) cloud.VM {
	t.Helper()
	idx, err := s.Catalog().Index(name)
	if err != nil {
		t.Fatal(err)
	}
	return s.Catalog().VM(idx)
}

// TestStudySetSize pins the paper's headline number: 107 workloads survive
// the OOM exclusion.
func TestStudySetSize(t *testing.T) {
	s := newSim(t)
	study := s.StudyWorkloads()
	if len(study) != 107 {
		t.Fatalf("study set has %d workloads, want 107", len(study))
	}
}

func TestStudySetSubsetOfCandidates(t *testing.T) {
	s := newSim(t)
	all := map[string]bool{}
	for _, w := range workloads.All() {
		all[w.ID()] = true
	}
	for _, w := range s.StudyWorkloads() {
		if !all[w.ID()] {
			t.Errorf("study workload %s not a candidate", w.ID())
		}
		if !s.RunsEverywhere(w) {
			t.Errorf("study workload %s does not run everywhere", w.ID())
		}
	}
}

func TestExcludedWorkloadsAreMemoryHeavy(t *testing.T) {
	s := newSim(t)
	study := map[string]bool{}
	for _, w := range s.StudyWorkloads() {
		study[w.ID()] = true
	}
	minMem := math.Inf(1)
	for i := 0; i < s.Catalog().Len(); i++ {
		minMem = math.Min(minMem, s.Catalog().VM(i).MemGiB)
	}
	for _, w := range workloads.All() {
		excluded := !study[w.ID()]
		tooBig := w.Demands.WorkingSetGiB > OOMFactor*minMem
		if excluded != tooBig {
			t.Errorf("%s: excluded=%v but working set %.2f vs limit %.2f",
				w.ID(), excluded, w.Demands.WorkingSetGiB, OOMFactor*minMem)
		}
	}
}

func TestTruthDeterministic(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "als/spark2.1/medium")
	vm := mustVM(t, s, "c4.xlarge")
	a, err := s.Truth(w, vm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Truth(w, vm)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec != b.TimeSec || a.CostUSD != b.CostUSD || a.Metrics != b.Metrics {
		t.Error("Truth is not deterministic")
	}
	if a.Breakdown.NoiseFactor != 1 {
		t.Errorf("Truth noise factor = %v, want 1", a.Breakdown.NoiseFactor)
	}
}

func TestMeasureReproducibleByTrial(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "kmeans/spark2.1/medium")
	vm := mustVM(t, s, "m4.large")
	a, err := s.Measure(w, vm, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Measure(w, vm, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec != b.TimeSec {
		t.Error("same trial should reproduce exactly")
	}
	c, err := s.Measure(w, vm, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec == c.TimeSec {
		t.Error("different trials should differ")
	}
}

func TestMeasureNoiseIsBounded(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "kmeans/spark2.1/medium")
	vm := mustVM(t, s, "m4.large")
	truth, err := s.Truth(w, vm)
	if err != nil {
		t.Fatal(err)
	}
	for trial := int64(0); trial < 50; trial++ {
		m, err := s.Measure(w, vm, trial)
		if err != nil {
			t.Fatal(err)
		}
		ratio := m.TimeSec / truth.TimeSec
		if ratio < 0.75 || ratio > 1.3 {
			t.Errorf("trial %d: noise ratio %v outside plausible band", trial, ratio)
		}
	}
}

func TestNoiseDisabled(t *testing.T) {
	s := newSim(t, WithNoiseSigma(0))
	w := mustWorkload(t, "kmeans/spark2.1/medium")
	vm := mustVM(t, s, "m4.large")
	truth, _ := s.Truth(w, vm)
	m, err := s.Measure(w, vm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.TimeSec != truth.TimeSec {
		t.Error("noise disabled: Measure should equal Truth")
	}
}

func TestInfeasibleWorkloadErrors(t *testing.T) {
	s := newSim(t)
	// classification/spark1.5/large has a ~20 GiB working set; the
	// 3.75 GiB c4.large cannot run it (limit = 3 x 3.75 = 11.25).
	w := mustWorkload(t, "classification/spark1.5/large")
	vm := mustVM(t, s, "c4.large")
	if _, err := s.Truth(w, vm); !errors.Is(err, ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
	// But it runs on a 61 GiB r4.2xlarge.
	big := mustVM(t, s, "r4.2xlarge")
	if _, err := s.Truth(w, big); err != nil {
		t.Errorf("should run on r4.2xlarge: %v", err)
	}
}

func TestCostIsTimeTimesPrice(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "sort/hadoop2.7/medium")
	for i := 0; i < s.Catalog().Len(); i++ {
		vm := s.Catalog().VM(i)
		res, err := s.Truth(w, vm)
		if err != nil {
			t.Fatal(err)
		}
		want := res.TimeSec / 3600 * vm.PricePerHr
		if math.Abs(res.CostUSD-want) > 1e-12 {
			t.Errorf("%s: cost %v, want %v", vm.Name(), res.CostUSD, want)
		}
	}
}

func TestBiggerVMRarelyMuchSlowerWithinFamily(t *testing.T) {
	// Holding the family fixed, a bigger VM has more cores, more memory
	// and more EBS bandwidth. The systematic affinity bias can invert
	// neighbors occasionally (the paper's non-smoothness), but a bigger
	// VM must never be MUCH slower than the next size down, and
	// inversions must stay a small minority.
	s := newSim(t)
	inversions, comparisons := 0, 0
	for _, w := range s.StudyWorkloads() {
		for _, fam := range []string{"c3", "c4", "m3", "m4", "r3", "r4"} {
			var prevTime float64
			for i, size := range []string{"large", "xlarge", "2xlarge"} {
				vm := mustVM(t, s, fam+"."+size)
				res, err := s.Truth(w, vm)
				if err != nil {
					t.Fatalf("%s on %s: %v", w.ID(), vm.Name(), err)
				}
				if i > 0 {
					comparisons++
					if res.TimeSec > prevTime {
						inversions++
						// Bounded by the affinity clamp ratio.
						if res.TimeSec > prevTime*1.5 {
							t.Errorf("%s: %s is %.2fx slower than the next size down",
								w.ID(), vm.Name(), res.TimeSec/prevTime)
						}
					}
				}
				prevTime = res.TimeSec
			}
		}
	}
	if frac := float64(inversions) / float64(comparisons); frac > 0.25 {
		t.Errorf("size inversions in %.0f%% of comparisons — landscape too chaotic", 100*frac)
	}
}

func TestThrashFactorShape(t *testing.T) {
	if thrashFactor(0.5) != 1 || thrashFactor(thrashKnee) != 1 {
		t.Error("no penalty below the knee")
	}
	if got := thrashFactor(1.0); math.Abs(got-thrashAtFull) > 1e-12 {
		t.Errorf("thrash(1.0) = %v, want %v", got, thrashAtFull)
	}
	if thrashFactor(2) <= thrashFactor(1.5) {
		t.Error("thrash must grow past 1.0")
	}
	if thrashFactor(3) < 3 {
		t.Errorf("thrash(3) = %v, want a strong cliff (>3)", thrashFactor(3))
	}
	if thrashFactor(4.5) < 8 {
		t.Errorf("thrash(4.5) = %v, want a severe cliff (>8)", thrashFactor(4.5))
	}
	// Continuity at the knee and at 1.0.
	if d := thrashFactor(thrashKnee+1e-9) - 1; d > 1e-6 {
		t.Errorf("discontinuity at knee: %v", d)
	}
	if d := math.Abs(thrashFactor(1+1e-9) - thrashFactor(1-1e-9)); d > 1e-6 {
		t.Errorf("discontinuity at 1.0: %v", d)
	}
}

func TestAmdahlEffectiveCores(t *testing.T) {
	if got := amdahlEffectiveCores(8, 0); got != 8 {
		t.Errorf("perfectly parallel on 8 cores: %v", got)
	}
	if got := amdahlEffectiveCores(8, 1); got != 1 {
		t.Errorf("fully serial: %v", got)
	}
	got := amdahlEffectiveCores(8, 0.5)
	if want := 1 / (0.5 + 0.5/8); math.Abs(got-want) > 1e-12 {
		t.Errorf("amdahl(8, .5) = %v, want %v", got, want)
	}
}

func TestMemoryBottleneckVisibleInMetrics(t *testing.T) {
	// lr/spark1.5/medium has an ~8 GiB working set: on a 3.75 GiB
	// c3.large it thrashes; on a 61 GiB r4.2xlarge it does not. The
	// low-level metrics must expose this (Figure 8).
	s := newSim(t)
	w := mustWorkload(t, "lr/spark1.5/medium")
	small, err := s.Truth(w, mustVM(t, s, "c3.large"))
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.Truth(w, mustVM(t, s, "r4.2xlarge"))
	if err != nil {
		t.Fatal(err)
	}
	if small.Metrics[lowlevel.MemCommit] <= 100 {
		t.Errorf("thrashing VM %%commit = %v, want > 100", small.Metrics[lowlevel.MemCommit])
	}
	if big.Metrics[lowlevel.MemCommit] >= 100 {
		t.Errorf("roomy VM %%commit = %v, want < 100", big.Metrics[lowlevel.MemCommit])
	}
	if small.Metrics[lowlevel.IOWait] <= big.Metrics[lowlevel.IOWait] {
		t.Errorf("thrashing VM iowait %v should exceed roomy VM %v",
			small.Metrics[lowlevel.IOWait], big.Metrics[lowlevel.IOWait])
	}
	if small.TimeSec < 4*big.TimeSec {
		t.Errorf("memory bottleneck slowdown = %.1fx, want >= 4x", small.TimeSec/big.TimeSec)
	}
}

func TestMetricsValidForAllStudyRuns(t *testing.T) {
	s := newSim(t)
	for _, w := range s.StudyWorkloads() {
		for i := 0; i < s.Catalog().Len(); i++ {
			res, err := s.Measure(w, s.Catalog().VM(i), 1)
			if err != nil {
				t.Fatalf("%s on %s: %v", w.ID(), s.Catalog().VM(i).Name(), err)
			}
			if err := res.Metrics.Validate(); err != nil {
				t.Fatalf("%s on %s: %v", w.ID(), s.Catalog().VM(i).Name(), err)
			}
			if res.TimeSec <= 0 || res.CostUSD <= 0 {
				t.Fatalf("%s on %s: non-positive result %+v", w.ID(), s.Catalog().VM(i).Name(), res)
			}
		}
	}
}

func TestCPUPlusIOWaitBounded(t *testing.T) {
	s := newSim(t, WithNoiseSigma(0))
	for _, w := range s.StudyWorkloads()[:20] {
		for i := 0; i < s.Catalog().Len(); i++ {
			res, err := s.Truth(w, s.Catalog().VM(i))
			if err != nil {
				t.Fatal(err)
			}
			total := res.Metrics[lowlevel.CPUUser] + res.Metrics[lowlevel.IOWait]
			if total > 100+1e-6 {
				t.Fatalf("%s on %s: %%user + %%iowait = %v > 100",
					w.ID(), s.Catalog().VM(i).Name(), total)
			}
		}
	}
}

func TestIOHeavyWorkloadShowsIOWait(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "scan/hadoop2.7/medium")
	res, err := s.Truth(w, mustVM(t, s, "m4.large"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics[lowlevel.IOWait] < 30 {
		t.Errorf("Hive scan iowait = %v, want I/O-bound (>30%%)", res.Metrics[lowlevel.IOWait])
	}
	if res.Metrics[lowlevel.DiskUtil] < 50 {
		t.Errorf("Hive scan disk util = %v, want high", res.Metrics[lowlevel.DiskUtil])
	}
}

func TestCPUBoundWorkloadShowsUserTime(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "word2vec/spark2.1/medium")
	res, err := s.Truth(w, mustVM(t, s, "c4.2xlarge"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics[lowlevel.CPUUser] < 40 {
		t.Errorf("word2vec %%user = %v, want CPU-dominated", res.Metrics[lowlevel.CPUUser])
	}
}

func TestSpreadMagnitudes(t *testing.T) {
	// The paper reports up to ~20x time spread and ~10x cost spread.
	s := newSim(t)
	maxTimeRatio, maxCostRatio := 0.0, 0.0
	for _, w := range s.StudyWorkloads() {
		minT, maxT := math.Inf(1), 0.0
		minC, maxC := math.Inf(1), 0.0
		for i := 0; i < s.Catalog().Len(); i++ {
			res, err := s.Truth(w, s.Catalog().VM(i))
			if err != nil {
				t.Fatal(err)
			}
			minT = math.Min(minT, res.TimeSec)
			maxT = math.Max(maxT, res.TimeSec)
			minC = math.Min(minC, res.CostUSD)
			maxC = math.Max(maxC, res.CostUSD)
		}
		maxTimeRatio = math.Max(maxTimeRatio, maxT/minT)
		maxCostRatio = math.Max(maxCostRatio, maxC/minC)
	}
	if maxTimeRatio < 10 {
		t.Errorf("max time spread %.1fx, want >= 10x (paper: up to 20x)", maxTimeRatio)
	}
	if maxTimeRatio > 40 {
		t.Errorf("max time spread %.1fx implausibly large", maxTimeRatio)
	}
	if maxCostRatio < 5 {
		t.Errorf("max cost spread %.1fx, want >= 5x (paper: up to 10x)", maxCostRatio)
	}
}

func TestTruthTableOrderMatchesCatalog(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "pearson/spark2.1/medium")
	table, err := s.TruthTable(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != s.Catalog().Len() {
		t.Fatalf("table has %d rows", len(table))
	}
	for i, res := range table {
		direct, err := s.Truth(w, s.Catalog().VM(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.TimeSec != direct.TimeSec {
			t.Errorf("row %d mismatch", i)
		}
	}
}

func TestTruthTableInfeasibleWorkload(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "classification/spark1.5/large")
	if _, err := s.TruthTable(w); !errors.Is(err, ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
}

func TestInvalidDemandRejected(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "sort/hadoop2.7/medium")
	w.Demands.CPUCoreSeconds = 0
	if _, err := s.Truth(w, s.Catalog().VM(0)); err == nil {
		t.Error("zero CPU demand should fail")
	}
	w = mustWorkload(t, "sort/hadoop2.7/medium")
	w.Demands.SerialFraction = 1.5
	if _, err := s.Truth(w, s.Catalog().VM(0)); err == nil {
		t.Error("bad serial fraction should fail")
	}
}

func TestBreakdownConsistency(t *testing.T) {
	s := newSim(t, WithNoiseSigma(0))
	w := mustWorkload(t, "lr/spark1.5/medium")
	vm := mustVM(t, s, "c3.large")
	res, err := s.Truth(w, vm)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Breakdown
	if b.Affinity < 0.8 || b.Affinity > 1.25 {
		t.Errorf("affinity %v outside clamp", b.Affinity)
	}
	if got := (b.CPUBusySec + b.TotalIOSec) * b.Affinity; math.Abs(got-res.TimeSec) > 1e-9 {
		t.Errorf("phases sum to %v, time is %v", got, res.TimeSec)
	}
	if b.SpillSec <= 0 {
		t.Error("thrashing run should spill")
	}
	if b.GCFactor <= 1 {
		t.Errorf("GC factor %v, want > 1 under memory pressure", b.GCFactor)
	}
	if b.MemRatio <= 1 {
		t.Errorf("mem ratio %v, want > 1", b.MemRatio)
	}
}

func TestDifferentSizesPreferDifferentVMs(t *testing.T) {
	// Figure 5's phenomenon: at least one app's cost-optimal VM changes
	// with input size.
	s := newSim(t)
	changed := 0
	checked := 0
	byKey := map[string]map[workloads.InputSize]workloads.Workload{}
	for _, w := range s.StudyWorkloads() {
		key := w.AppName + "/" + w.System.String()
		if byKey[key] == nil {
			byKey[key] = map[workloads.InputSize]workloads.Workload{}
		}
		byKey[key][w.Size] = w
	}
	for _, sizes := range byKey {
		if len(sizes) < 2 {
			continue
		}
		checked++
		best := map[string]bool{}
		for _, w := range sizes {
			minC, minIdx := math.Inf(1), -1
			for i := 0; i < s.Catalog().Len(); i++ {
				res, err := s.Truth(w, s.Catalog().VM(i))
				if err != nil {
					t.Fatal(err)
				}
				if res.CostUSD < minC {
					minC, minIdx = res.CostUSD, i
				}
			}
			best[s.Catalog().VM(minIdx).Name()] = true
		}
		if len(best) > 1 {
			changed++
		}
	}
	if checked == 0 {
		t.Fatal("no multi-size apps in study set")
	}
	if changed == 0 {
		t.Error("no app's cost-optimal VM changes with input size (Figure 5 phenomenon missing)")
	}
}

func TestNoSingleVMOptimalEverywhere(t *testing.T) {
	// "No VM rules all": neither objective has one VM optimal for every
	// workload.
	s := newSim(t)
	for _, obj := range []string{"time", "cost"} {
		counts := map[string]int{}
		for _, w := range s.StudyWorkloads() {
			minV, minIdx := math.Inf(1), -1
			for i := 0; i < s.Catalog().Len(); i++ {
				res, err := s.Truth(w, s.Catalog().VM(i))
				if err != nil {
					t.Fatal(err)
				}
				v := res.TimeSec
				if obj == "cost" {
					v = res.CostUSD
				}
				if v < minV {
					minV, minIdx = v, i
				}
			}
			counts[s.Catalog().VM(minIdx).Name()]++
		}
		if len(counts) < 2 {
			t.Errorf("objective %s: a single VM is optimal for every workload: %v", obj, counts)
		}
	}
}

// TestAffinityMatchesDirectRecomputation checks every study pair's Truth
// and Measure bit for bit against a direct recomputation of its affinity
// factor from the canonical workload ID and VM name.
func TestAffinityMatchesDirectRecomputation(t *testing.T) {
	s := newSim(t)
	cat := s.Catalog()
	for _, w := range s.StudyWorkloads() {
		for i := 0; i < cat.Len(); i++ {
			vm := cat.VM(i)
			direct := affinityFactor(w.ID(), vm.Name())
			truth, err := s.Truth(w, vm)
			if err != nil {
				t.Fatal(err)
			}
			measured, err := s.Measure(w, vm, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, m := truth.Breakdown, measured.Breakdown
			if math.Float64bits(b.Affinity) != math.Float64bits(direct) ||
				math.Float64bits(truth.TimeSec) != math.Float64bits((b.CPUBusySec+b.TotalIOSec)*direct) ||
				math.Float64bits(measured.TimeSec) != math.Float64bits((m.CPUBusySec+m.TotalIOSec)*direct*m.NoiseFactor) {
				t.Fatalf("%s on %s: truth %v, measured %v, direct affinity %v",
					w.ID(), vm.Name(), truth.TimeSec, measured.TimeSec, direct)
			}
		}
	}
}
