package sim

import (
	"errors"
	"testing"

	"repro/internal/cloud"
)

func TestTargetImplementsCoreTarget(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "als/spark2.1/medium")
	target := s.NewTarget(w, 1)

	if target.NumCandidates() != 18 {
		t.Fatalf("%d candidates", target.NumCandidates())
	}
	if target.Workload().ID() != w.ID() {
		t.Errorf("workload %s", target.Workload().ID())
	}
	for i := 0; i < target.NumCandidates(); i++ {
		if len(target.Features(i)) != cloud.NumFeatures {
			t.Errorf("candidate %d: %d features", i, len(target.Features(i)))
		}
		if target.Name(i) == "" {
			t.Errorf("candidate %d unnamed", i)
		}
	}
}

func TestTargetMeasureMatchesSimulator(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "pearson/spark2.1/medium")
	target := s.NewTarget(w, 7)
	out, err := target.Measure(3)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.Measure(w, s.Catalog().VM(3), 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.TimeSec != direct.TimeSec || out.CostUSD != direct.CostUSD {
		t.Error("target measurement diverges from simulator")
	}
}

func TestTargetInfeasibleWorkloadError(t *testing.T) {
	s := newSim(t)
	w := mustWorkload(t, "classification/spark1.5/large")
	target := s.NewTarget(w, 1)
	smallIdx, err := s.Catalog().Index("c4.large")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Measure(smallIdx); !errors.Is(err, ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
}
