package cluster

import (
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func newClusterSim(t *testing.T) (*Simulator, *Catalog) {
	t.Helper()
	single := sim.New(cloud.DefaultCatalog())
	catalog, err := NewCatalog(single.Catalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewSimulator(single), catalog
}

func mustWorkload(t *testing.T, id string) workloads.Workload {
	t.Helper()
	w, err := workloads.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewCatalog(t *testing.T) {
	_, catalog := newClusterSim(t)
	if want := 18 * len(DefaultNodeCounts()); catalog.Len() != want {
		t.Fatalf("catalog has %d configs, want %d", catalog.Len(), want)
	}
	seen := map[string]bool{}
	for i := 0; i < catalog.Len(); i++ {
		cfg := catalog.Config(i)
		name := cfg.Name()
		if seen[name] {
			t.Errorf("duplicate config %q", name)
		}
		seen[name] = true
		if !strings.Contains(name, " x") {
			t.Errorf("malformed name %q", name)
		}
		if len(cfg.Encode()) != NumFeatures {
			t.Errorf("%s: %d features", name, len(cfg.Encode()))
		}
	}
}

func TestNewCatalogValidation(t *testing.T) {
	single := sim.New(cloud.DefaultCatalog())
	if _, err := NewCatalog(single.Catalog(), []int{0}); err == nil {
		t.Error("zero node count should fail")
	}
}

func TestCatalogIndex(t *testing.T) {
	_, catalog := newClusterSim(t)
	idx, err := catalog.Index("c4.xlarge x4")
	if err != nil {
		t.Fatal(err)
	}
	if got := catalog.Config(idx).Name(); got != "c4.xlarge x4" {
		t.Errorf("Index round trip = %q", got)
	}
	if _, err := catalog.Index("c4.xlarge x99"); err == nil {
		t.Error("unknown config should fail")
	}
}

func TestClusterSpeedsUpParallelWork(t *testing.T) {
	s, _ := newClusterSim(t)
	// word2vec is CPU-heavy with a modest serial fraction: 4 nodes should
	// beat 1 node clearly but sublinearly.
	w := mustWorkload(t, "word2vec/spark2.1/medium")
	vmIdx, err := cloud.DefaultCatalog().Index("m4.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	vm := cloud.DefaultCatalog().VM(vmIdx)
	speedup, err := s.Speedup(w, Config{VM: vm, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if speedup <= 1.3 {
		t.Errorf("4-node speedup %.2f, want clearly above 1", speedup)
	}
	if speedup >= 4 {
		t.Errorf("4-node speedup %.2f is superlinear — coordination model missing", speedup)
	}
}

func TestDiminishingReturns(t *testing.T) {
	s, _ := newClusterSim(t)
	w := mustWorkload(t, "gb-tree/spark2.1/medium") // high serial fraction
	vmIdx, _ := cloud.DefaultCatalog().Index("c4.xlarge")
	vm := cloud.DefaultCatalog().VM(vmIdx)
	s4, err := s.Speedup(w, Config{VM: vm, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	s8, err := s.Speedup(w, Config{VM: vm, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Per-node efficiency must fall with scale.
	if s8/8 >= s4/4 {
		t.Errorf("efficiency grew with nodes: %0.2f/8 vs %0.2f/4", s8, s4)
	}
}

func TestClusterCostChargesAllNodes(t *testing.T) {
	s, _ := newClusterSim(t)
	w := mustWorkload(t, "pearson/spark2.1/medium")
	vmIdx, _ := cloud.DefaultCatalog().Index("m4.large")
	vm := cloud.DefaultCatalog().VM(vmIdx)
	res, err := s.Truth(w, Config{VM: vm, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := res.TimeSec / 3600 * vm.PricePerHr * 4
	if diff := res.CostUSD - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cost %v, want %v", res.CostUSD, want)
	}
}

func TestClusterRelievesMemoryPressure(t *testing.T) {
	s, _ := newClusterSim(t)
	// lr/spark1.5 thrashes on one c4.large (3.75 GiB); spreading over 8
	// nodes must make it feasible and far faster than the 2-node cluster.
	w := mustWorkload(t, "lr/spark1.5/medium")
	vmIdx, _ := cloud.DefaultCatalog().Index("c4.large")
	vm := cloud.DefaultCatalog().VM(vmIdx)
	small, err := s.Truth(w, Config{VM: vm, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.Truth(w, Config{VM: vm, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if big.TimeSec >= small.TimeSec {
		t.Errorf("8 nodes (%v s) not faster than 2 (%v s) for a memory-bound workload", big.TimeSec, small.TimeSec)
	}
}

func TestPerNodeWorkloadIdentityDistinct(t *testing.T) {
	w := mustWorkload(t, "kmeans/spark2.1/medium")
	a := perNodeWorkload(w, 2)
	b := perNodeWorkload(w, 4)
	if a.ID() == b.ID() {
		t.Error("different node counts must have distinct workload identities")
	}
	if one := perNodeWorkload(w, 1); one.ID() != w.ID() {
		t.Error("single node must preserve the workload identity")
	}
}

func TestMeasureReproducible(t *testing.T) {
	s, catalog := newClusterSim(t)
	w := mustWorkload(t, "kmeans/spark2.1/medium")
	cfg := catalog.Config(5)
	a, err := s.Measure(w, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Measure(w, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec != b.TimeSec {
		t.Error("same trial should reproduce")
	}
}

func TestStudyWorkloadsCluster(t *testing.T) {
	s, catalog := newClusterSim(t)
	ws := s.StudyWorkloads(catalog)
	// Multi-node clusters only relieve memory pressure, so the full
	// single-VM study set must survive.
	if len(ws) != 107 {
		t.Errorf("cluster study set has %d workloads, want 107", len(ws))
	}
}

func TestClusterTargetSearch(t *testing.T) {
	s, catalog := newClusterSim(t)
	w := mustWorkload(t, "als/spark2.1/medium")
	for _, mk := range []func() (core.Optimizer, error){
		func() (core.Optimizer, error) {
			return core.New(core.Config{Method: core.MethodNaiveBO, Objective: core.MinimizeCost, Seed: 1})
		},
		func() (core.Optimizer, error) {
			return core.New(core.Config{Method: core.MethodAugmentedBO, Objective: core.MinimizeCost, Seed: 1})
		},
	} {
		opt, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Search(s.NewTarget(catalog, w, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.BestIndex < 0 || res.BestIndex >= catalog.Len() {
			t.Errorf("best index %d out of range", res.BestIndex)
		}
		if res.NumMeasurements() > catalog.Len() {
			t.Errorf("measured %d of %d", res.NumMeasurements(), catalog.Len())
		}
	}
}

func TestBestClusterIsNotAlwaysBiggest(t *testing.T) {
	// Under the cost objective, the optimal node count should vary across
	// workloads — the second-axis "level playing field".
	s, catalog := newClusterSim(t)
	bestNodes := map[int]int{}
	for _, id := range []string{
		"scan/hadoop2.7/medium", "word2vec/spark2.1/medium",
		"lr/spark1.5/medium", "gb-tree/spark2.1/medium",
		"pearson/spark2.1/medium", "terasort/hadoop2.7/large",
	} {
		w := mustWorkload(t, id)
		bestCost, bestIdx := -1.0, -1
		for i := 0; i < catalog.Len(); i++ {
			res, err := s.Truth(w, catalog.Config(i))
			if err != nil {
				t.Fatal(err)
			}
			if bestIdx == -1 || res.CostUSD < bestCost {
				bestCost, bestIdx = res.CostUSD, i
			}
		}
		bestNodes[catalog.Config(bestIdx).Nodes]++
	}
	if len(bestNodes) < 2 {
		t.Errorf("every workload prefers the same node count: %v", bestNodes)
	}
}

func TestPerNodeWorkloadDemandMath(t *testing.T) {
	w := mustWorkload(t, "kmeans/spark2.1/medium")
	derived := perNodeWorkload(w, 4)
	if got, want := derived.Demands.CPUCoreSeconds, w.Demands.CPUCoreSeconds/4; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if derived.Demands.SerialFraction <= w.Demands.SerialFraction {
		t.Error("coordination must raise the serial fraction")
	}
	even := w.Demands.WorkingSetGiB / 4
	if derived.Demands.WorkingSetGiB <= even {
		t.Error("hot-partition skew must exceed the even share")
	}
	if derived.Demands.WorkingSetGiB >= w.Demands.WorkingSetGiB {
		t.Error("per-node working set must shrink")
	}
	if derived.Demands.IOGiB >= w.Demands.IOGiB {
		t.Error("per-node I/O must shrink")
	}
}

func TestSerialFractionCapped(t *testing.T) {
	w := mustWorkload(t, "mm/spark2.1/medium") // serial 0.35
	derived := perNodeWorkload(w, 64)
	if derived.Demands.SerialFraction > maxSerialFraction {
		t.Errorf("serial fraction %v exceeds cap", derived.Demands.SerialFraction)
	}
}
